//! `DPAlloc`: heuristic combined scheduling, resource binding and wordlength
//! selection for multiple-wordlength systems.
//!
//! This crate is the primary contribution of the reproduced paper
//! (Constantinides, Cheung, Luk, *Heuristic Datapath Allocation for Multiple
//! Wordlength Systems*, DATE 2001).  Given a sequencing graph whose
//! operations carry individual fixed-point wordlengths, a cost model and an
//! overall latency constraint `λ`, the allocator produces a [`Datapath`]:
//!
//! * a start control step for every operation,
//! * a set of resource instances (each a resource-wordlength type such as
//!   "16×16-bit multiplier"),
//! * a binding of every operation to an instance — which simultaneously *is*
//!   the wordlength selection, because an operation bound to a larger
//!   resource is implemented at that resource's wordlength,
//! * the resulting total area and overall latency.
//!
//! The heuristic follows the paper's three phases, iterated until the latency
//! constraint is met (Algorithm *DPAlloc*):
//!
//! 1. **Scheduling with incomplete wordlength information** — list scheduling
//!    with latency *upper bounds* `L_o` and the wordlength-aware resource
//!    constraint of Eqn (3) (see [`mwl_sched::SchedulingSetBound`]).
//! 2. **Combined binding and wordlength selection** (Algorithm *BindSelect*)
//!    — greedy implicit unate covering over maximum chains of the
//!    transitively-oriented compatibility graph, with a clique-growth
//!    compensation step.
//! 3. **Wordlength refinement** — when the latency constraint is violated,
//!    the *bound critical path* is computed and the candidate operation that
//!    loses the smallest proportion of wordlength edges has its slowest
//!    candidate resources removed, and the loop repeats.
//!
//! On top of the paper's loop, a **post-bind instance-merging pass**
//! ([`merge`]) coalesces same-class instances onto widened shared units
//! whenever that strictly reduces area while still meeting `λ` — closing the
//! per-graph gap to the uniform (DSP-style) baseline that the split-only
//! refinement loop leaves open under loose latency budgets.  It is on by
//! default and controlled by [`AllocConfig::with_instance_merging`].
//!
//! *Pipeline position:* the centre of the workspace — consumes `mwl_model`,
//! `mwl_sched` and `mwl_wcg`; consumed by the baselines, the optimal
//! allocators and the batch driver.  See `docs/ARCHITECTURE.md` for the
//! full paper-to-module map and a data-flow diagram of one allocation.
//!
//! # Quick start
//!
//! ```
//! use mwl_core::{AllocConfig, DpAllocator};
//! use mwl_model::{OpShape, SequencingGraphBuilder, SonicCostModel};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = SequencingGraphBuilder::new();
//! let x = b.add_operation(OpShape::multiplier(8, 8));
//! let y = b.add_operation(OpShape::multiplier(14, 10));
//! let s = b.add_operation(OpShape::adder(24));
//! b.add_dependency(x, s)?;
//! b.add_dependency(y, s)?;
//! let graph = b.build()?;
//!
//! let cost = SonicCostModel::default();
//! let config = AllocConfig::new(12);
//! let datapath = DpAllocator::new(&cost, config).allocate(&graph)?;
//! assert!(datapath.latency() <= 12);
//! datapath.validate(&graph, &cost)?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bind;
mod cost_cache;
mod datapath;
mod dpalloc;
mod error;
pub mod fingerprint;
pub mod merge;
pub mod portfolio;
pub mod reference;
mod refine;
mod replay;
mod report;
mod scratch;
pub mod storage;

pub use bind::{bind_select, BindSelectOptions};
pub use cost_cache::CachedCostModel;
pub use datapath::{Datapath, ResourceInstance, ValueLifetime};
pub use dpalloc::{most_contended_class, AllocConfig, AllocOutcome, DpAllocator, RefinementPolicy};
pub use error::{AllocError, ValidateError};
pub use fingerprint::{config_fingerprint, datapath_fingerprint, graph_fingerprint, StableHasher};
pub use merge::{merge_instances, MergeStats};
pub use portfolio::{
    run_portfolio, run_portfolio_with_hook, run_portfolio_with_scratch, PortfolioOutcome,
    PortfolioSpec, PortfolioStats,
};
pub use refine::{bound_critical_path, select_refinement_op};
pub use report::{render_report, DatapathReport, InstanceUtilisation};
pub use scratch::{with_warm_scratch, AllocScratch};
pub use storage::{
    clique_lower_bound, left_edge_registers, pack_registers, result_widths, BindingCertificate,
    RegisterBinding,
};

//! Scheduling for multiple-wordlength sequencing graphs.
//!
//! This crate implements the scheduling machinery of Section 2.2 of the DATE
//! 2001 paper:
//!
//! * [`asap`] / [`alap`] scheduling and [`critical_path_length`] /
//!   [`mobility`] for arbitrary per-operation latencies (the allocator calls
//!   these with latency *upper bounds* `L_o`);
//! * resource-constrained **list scheduling** ([`ListScheduler`]) that is
//!   generic over a [`ResourceConstraint`] strategy:
//!     * [`Unbounded`] — no resource limits (degenerates to ASAP),
//!     * [`PerClassBound`] — the standard constraint of Eqn (2),
//!     * [`SchedulingSetBound`] — the paper's wordlength-aware constraint of
//!       Eqn (3), which shares operations with more than one candidate
//!       scheduling-set member fractionally between those members (its
//!       `S(o)` rows are bitsets with reusable buffers, so the allocator's
//!       refinement loop rewrites only the rows a refinement touched);
//! * minimum-cardinality *scheduling set* computation ([`minimum_cover`],
//!   [`scheduling_set`], and the buffer-reusing
//!   [`scheduling_set_with_scratch`] over bitset columns, all one solver) —
//!   the subset `S ⊆ R` such that every operation can be executed by at
//!   least one member of `S`.
//!
//! The central output type is [`Schedule`], a start control step per
//! operation, with validation against precedence and latency constraints.
//!
//! *Pipeline position:* the "scheduling with incomplete wordlength
//! information" stage inside the `DPAlloc` loop (`mwl_core`) — Section 2.2
//! of the paper.  See `docs/ARCHITECTURE.md` for the full map.
//!
//! # Example
//!
//! ```
//! use mwl_model::{OpShape, SequencingGraphBuilder, SonicCostModel, CostModel, ResourceType};
//! use mwl_sched::{asap, critical_path_length, OpLatencies};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = SequencingGraphBuilder::new();
//! let m = b.add_operation(OpShape::multiplier(8, 8));
//! let a = b.add_operation(OpShape::adder(16));
//! b.add_dependency(m, a)?;
//! let g = b.build()?;
//!
//! let cost = SonicCostModel::default();
//! let lats = OpLatencies::from_fn(&g, |op| cost.native_latency(op.shape()));
//! let schedule = asap(&g, &lats);
//! assert_eq!(schedule.start(m), 0);
//! assert_eq!(schedule.start(a), 2);
//! assert_eq!(critical_path_length(&g, &lats), 4);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod constraint;
mod cover;
mod error;
mod list;
mod schedule;
mod timing;

pub use constraint::{
    PerClassBound, PerInstanceExclusive, ResourceConstraint, SchedulingSetBound, Unbounded,
};
pub use cover::{minimum_cover, scheduling_set, scheduling_set_with_scratch, CoverScratch};
pub use error::SchedError;
pub use list::{ListScheduler, SchedScratch, SchedulePriority};
pub use schedule::{OpLatencies, Schedule};
pub use timing::{alap, asap, critical_path_length, mobility};

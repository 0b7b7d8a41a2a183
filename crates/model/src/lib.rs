//! Operation, resource and sequencing-graph model for multiple-wordlength
//! datapath allocation.
//!
//! This crate is the substrate shared by every other crate in the workspace.
//! It models the inputs of the combined *scheduling, resource binding and
//! wordlength selection* problem introduced by Constantinides, Cheung and Luk
//! (DATE 2001):
//!
//! * [`Operation`]s carry their own fixed-point wordlengths ([`OpShape`]),
//!   so two multiplications are generally **not** interchangeable.
//! * [`ResourceType`]s are *resource-wordlength* pairs such as
//!   "16×16-bit multiplier" or "12-bit adder".  A resource can execute every
//!   operation of its class whose wordlengths it covers
//!   ([`ResourceType::covers`]), even when a larger resource implies a longer
//!   latency.
//! * A [`CostModel`] maps resource types to area and latency.  The default
//!   [`SonicCostModel`] uses the empirical latency formula quoted in the
//!   paper (`⌈(n+m)/8⌉` cycles for an `n×m` multiplier, 2 cycles for adders)
//!   together with an area model that scales linearly with adder width and
//!   bilinearly with multiplier operand widths.
//! * A [`SequencingGraph`] is the data-dependence DAG `P(O, S)` the allocator
//!   consumes.
//!
//! *Pipeline position:* the substrate under every other crate — Section 2 of
//! the paper.  See `docs/ARCHITECTURE.md` for the full paper-to-module map.
//!
//! # Example
//!
//! ```
//! use mwl_model::{SequencingGraphBuilder, OpShape, SonicCostModel, CostModel};
//!
//! # fn main() -> Result<(), mwl_model::ModelError> {
//! let mut b = SequencingGraphBuilder::new();
//! let x = b.add_operation(OpShape::multiplier(8, 8));
//! let y = b.add_operation(OpShape::multiplier(12, 8));
//! let s = b.add_operation(OpShape::adder(16));
//! b.add_dependency(x, s)?;
//! b.add_dependency(y, s)?;
//! let graph = b.build()?;
//!
//! let model = SonicCostModel::default();
//! let resources = graph.extract_resource_types();
//! assert!(!resources.is_empty());
//! for r in &resources {
//!     assert!(model.latency(r) >= 1);
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cost;
mod error;
pub mod fixedpoint;
mod graph;
mod op;
mod resource;

pub use cost::{
    AreaBreakdown, CostModel, LinearCostModel, SonicCostModel, StorageCosts, UnitCostModel,
};
pub use error::ModelError;
pub use graph::{DependencyEdge, SequencingGraph, SequencingGraphBuilder};
pub use op::{OpId, OpKind, OpShape, Operation};
pub use resource::{
    extract_resource_types, extract_resource_types_into, OperandWidths, ResourceClass, ResourceType,
};

/// Number of control steps; all latency quantities are in control steps.
pub type Cycles = u32;

/// Area measured in abstract area units of the active [`CostModel`].
pub type Area = u64;

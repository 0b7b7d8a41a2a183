//! Alternative multiple-wordlength allocation approaches used as baselines
//! in the DATE 2001 evaluation.
//!
//! * [`TwoStageAllocator`] — reproduction of the two-stage schedule-then-bind
//!   approach of reference \[4\] ("Multiple-wordlength resource binding"):
//!   operations are scheduled at their *native* wordlength latencies, then
//!   bound by branch and bound under the restriction that operations may only
//!   share a resource when doing so does **not** increase any operation's
//!   latency.  Figure 3 of the paper measures the area penalty of this
//!   approach relative to the intertwined heuristic.
//! * [`UniformWordlengthAllocator`] — the traditional DSP-processor model:
//!   a single uniform wordlength per resource class (the maximum needed),
//!   which every operation pays for.
//!
//! All baselines return an ordinary [`mwl_core::Datapath`], validated by the
//! same machinery as the heuristic, so areas and latencies are directly
//! comparable.
//!
//! *Pipeline position:* comparison points for the evaluation (Figure 3 and
//! the uniform-baseline regression tests); used by `mwl_bench` and the
//! examples.  See `docs/ARCHITECTURE.md` for the full map.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod common;
mod two_stage;
mod uniform;

pub use two_stage::{TwoStageAllocator, TwoStageOptions};
pub use uniform::UniformWordlengthAllocator;

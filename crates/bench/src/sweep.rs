//! Shared sweep configuration and helpers.

use std::time::Duration;

use serde::{Deserialize, Serialize};

use mwl_model::{CostModel, Cycles, SequencingGraph};
use mwl_sched::{critical_path_length, OpLatencies};

/// How many random graphs to evaluate per data point and how hard to let the
/// exact solver work.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepConfig {
    /// Random graphs per data point (the paper uses 200).
    pub graphs_per_point: usize,
    /// Seed of the first graph; graph `i` of a sweep uses `seed + i`.
    pub seed: u64,
    /// Wall-clock limit per ILP solve (the paper reports ">30:00.00" rows, so
    /// a limit is part of the methodology).
    pub ilp_time_limit: Duration,
}

impl SweepConfig {
    /// The paper's counts: 200 graphs per point, generous ILP limit.
    #[must_use]
    pub fn paper() -> Self {
        SweepConfig {
            graphs_per_point: 200,
            seed: 2001,
            ilp_time_limit: Duration::from_secs(120),
        }
    }

    /// A reduced sweep that completes in minutes on a laptop while keeping
    /// the qualitative shape of every figure.
    #[must_use]
    pub fn quick() -> Self {
        SweepConfig {
            graphs_per_point: 20,
            seed: 2001,
            ilp_time_limit: Duration::from_secs(5),
        }
    }

    /// Overrides the number of graphs per data point.
    #[must_use]
    pub fn with_graphs(mut self, graphs: usize) -> Self {
        self.graphs_per_point = graphs.max(1);
        self
    }
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig::quick()
    }
}

/// Minimum achievable latency `λ_min` of a graph: its critical path with
/// every operation at its native (fastest) wordlength.
#[must_use]
pub fn lambda_min(graph: &SequencingGraph, cost: &dyn CostModel) -> Cycles {
    let native = OpLatencies::from_fn(graph, |op| cost.native_latency(op.shape()));
    critical_path_length(graph, &native)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwl_model::{OpShape, SequencingGraphBuilder, SonicCostModel};

    #[test]
    fn presets() {
        assert_eq!(SweepConfig::paper().graphs_per_point, 200);
        assert!(SweepConfig::quick().graphs_per_point < 200);
        assert_eq!(SweepConfig::default(), SweepConfig::quick());
        let c = SweepConfig::quick().with_graphs(0);
        assert_eq!(c.graphs_per_point, 1);
    }

    #[test]
    fn lambda_min_of_a_chain() {
        let mut b = SequencingGraphBuilder::new();
        let x = b.add_operation(OpShape::multiplier(8, 8));
        let y = b.add_operation(OpShape::adder(16));
        b.add_dependency(x, y).unwrap();
        let g = b.build().unwrap();
        let cost = SonicCostModel::default();
        assert_eq!(lambda_min(&g, &cost), 4);
    }
}

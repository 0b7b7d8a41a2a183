//! The deterministic scenario mix every gate runs.
//!
//! Builds a reproducible job set spanning seven scenario families — the
//! paper's TGFF-style layered graphs plus wide/deep/diamond shapes, tight
//! and loose λ budgets, and bimodal "mixed" wordlength spreads.  The perf,
//! observability, portfolio and ablation gates and the `mwlbench`
//! workloads all draw their jobs from [`scenario_jobs`].

use mwl_driver::{BatchJob, LatencySpec};
use mwl_tgff::{GraphShape, TgffConfig, TgffGenerator, WidthProfile};

use crate::measure;

/// One scenario family: a name, a graph recipe and a λ budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioFamily {
    /// Family name (used as the job-label prefix).
    pub name: &'static str,
    /// Macro-structure of the generated graphs.
    pub shape: GraphShape,
    /// Whether operand widths are drawn bimodally.
    pub mixed_widths: bool,
    /// The per-graph latency budget.
    pub latency: LatencySpec,
}

/// The seven scenario families of the mix.
#[must_use]
pub fn scenario_families() -> Vec<ScenarioFamily> {
    vec![
        ScenarioFamily {
            name: "tgff",
            shape: GraphShape::Layered,
            mixed_widths: false,
            latency: LatencySpec::RelaxPercent(10),
        },
        ScenarioFamily {
            name: "wide",
            shape: GraphShape::Wide,
            mixed_widths: false,
            latency: LatencySpec::RelaxSteps(4),
        },
        ScenarioFamily {
            name: "deep",
            shape: GraphShape::Deep,
            mixed_widths: false,
            latency: LatencySpec::RelaxSteps(2),
        },
        ScenarioFamily {
            name: "diamond",
            shape: GraphShape::Diamond,
            mixed_widths: false,
            latency: LatencySpec::RelaxPercent(15),
        },
        ScenarioFamily {
            name: "tight",
            shape: GraphShape::Layered,
            mixed_widths: false,
            latency: LatencySpec::RelaxSteps(0),
        },
        ScenarioFamily {
            name: "loose",
            shape: GraphShape::Layered,
            mixed_widths: false,
            latency: LatencySpec::RelaxPercent(50),
        },
        ScenarioFamily {
            name: "mixed-widths",
            shape: GraphShape::Layered,
            mixed_widths: true,
            latency: LatencySpec::RelaxPercent(20),
        },
    ]
}

/// Parameters of the scenario mix and the worker counts a gate runs it at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchSweepConfig {
    /// Graphs generated per scenario family.
    pub graphs_per_family: usize,
    /// Problem sizes |O| cycled through within each family.
    pub sizes: Vec<usize>,
    /// Seed of the first graph (job `i` of a family uses `seed + i`).
    pub seed: u64,
    /// Worker counts a gate runs the mix at, in order; every run is checked
    /// against the 1-worker reference.
    pub worker_counts: Vec<usize>,
}

impl BatchSweepConfig {
    /// The default mix: enough work per family for throughput numbers to
    /// mean something, at 1, 2, 4 and all-hardware-threads workers.
    #[must_use]
    pub fn quick() -> Self {
        let mut worker_counts = vec![1, 2, 4, measure::cores()];
        worker_counts.sort_unstable();
        worker_counts.dedup();
        BatchSweepConfig {
            graphs_per_family: 12,
            sizes: vec![8, 10, 12, 14, 16],
            seed: 4242,
            worker_counts,
        }
    }

    /// A seconds-scale mix for CI: two graphs per family at 1 and 2
    /// workers.
    #[must_use]
    pub fn smoke() -> Self {
        BatchSweepConfig {
            graphs_per_family: 2,
            sizes: vec![6, 8],
            seed: 4242,
            worker_counts: vec![1, 2],
        }
    }

    /// Overrides the number of graphs per family.
    #[must_use]
    pub fn with_graphs(mut self, graphs: usize) -> Self {
        self.graphs_per_family = graphs.max(1);
        self
    }

    /// Overrides the worker counts.
    #[must_use]
    pub fn with_worker_counts(mut self, workers: Vec<usize>) -> Self {
        if !workers.is_empty() {
            self.worker_counts = workers.into_iter().map(|w| w.max(1)).collect();
        }
        self
    }
}

impl Default for BatchSweepConfig {
    fn default() -> Self {
        BatchSweepConfig::quick()
    }
}

/// Builds the deterministic job set of the mix: `graphs_per_family` jobs
/// per scenario family, labelled `family/|O|/seed`.
#[must_use]
pub fn scenario_jobs(config: &BatchSweepConfig) -> Vec<BatchJob> {
    let mut jobs = Vec::new();
    for family in scenario_families() {
        for i in 0..config.graphs_per_family {
            let ops = config.sizes[i % config.sizes.len()];
            let seed = config.seed.wrapping_add(i as u64);
            let mut tgff = TgffConfig::with_ops(ops).shape(family.shape);
            if family.mixed_widths {
                tgff = tgff.width_profile(WidthProfile::Mixed { high_fraction: 0.5 });
            }
            let graph = TgffGenerator::new(tgff, seed).generate();
            jobs.push(BatchJob::new(
                format!("{}/{}/{}", family.name, ops, seed),
                graph,
                family.latency,
            ));
        }
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_jobs_are_deterministic_and_labelled() {
        let config = BatchSweepConfig::smoke();
        let a = scenario_jobs(&config);
        let b = scenario_jobs(&config);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.label, y.label);
            assert_eq!(x.graph, y.graph);
        }
        assert!(a.iter().any(|j| j.label.starts_with("diamond/")));
        assert!(a.iter().any(|j| j.label.starts_with("mixed-widths/")));
    }

    #[test]
    fn config_builders() {
        let c = BatchSweepConfig::quick()
            .with_graphs(0)
            .with_worker_counts(vec![0, 3]);
        assert_eq!(c.graphs_per_family, 1);
        assert_eq!(c.worker_counts, vec![1, 3]);
        let unchanged = BatchSweepConfig::smoke().with_worker_counts(vec![]);
        assert_eq!(unchanged.worker_counts, vec![1, 2]);
        assert!(BatchSweepConfig::quick().worker_counts.contains(&1));
        assert!(BatchSweepConfig::quick().worker_counts.contains(&4));
    }
}

//! Batch job descriptions: a graph, a latency budget and allocator options.

use serde::{Deserialize, Serialize};

use mwl_core::{AllocConfig, PortfolioSpec};
use mwl_model::{CostModel, Cycles, SequencingGraph};
use mwl_obs::ObsMode;
use mwl_sched::{critical_path_length, OpLatencies};

/// A latency budget `λ`, either absolute or relative to the graph's minimum
/// achievable latency `λ_min` (its critical path with every operation at its
/// native wordlength).
///
/// Relative specs are resolved per graph when the batch runs, so one spec
/// can be applied uniformly across a whole scenario family of differently
/// sized graphs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LatencySpec {
    /// A fixed number of control steps.  May be infeasible for a given
    /// graph, in which case the job fails with
    /// [`AllocError::LatencyUnachievable`](mwl_core::AllocError::LatencyUnachievable)
    /// and the failure is recorded in the batch report.
    Absolute(Cycles),
    /// `λ_min + slack` control steps (saturating at `Cycles::MAX`): always
    /// feasible.
    RelaxSteps(Cycles),
    /// `⌈λ_min · (100 + percent) / 100⌉` control steps (saturating at
    /// `Cycles::MAX`): always feasible.  This is the relaxation axis of the
    /// paper's Figure 3.
    RelaxPercent(u32),
}

impl LatencySpec {
    /// Resolves the spec against a concrete graph and cost model.
    #[must_use]
    pub fn resolve(&self, graph: &SequencingGraph, cost: &dyn CostModel) -> Cycles {
        match *self {
            LatencySpec::Absolute(lambda) => lambda,
            LatencySpec::RelaxSteps(slack) => lambda_min(graph, cost).saturating_add(slack),
            LatencySpec::RelaxPercent(percent) => {
                // Integer arithmetic: through `f64`, 110% of 50 rounds up to 56.
                let scaled = (u128::from(lambda_min(graph, cost)) * (100 + u128::from(percent)))
                    .div_ceil(100);
                Cycles::try_from(scaled).unwrap_or(Cycles::MAX)
            }
        }
    }
}

fn lambda_min(graph: &SequencingGraph, cost: &dyn CostModel) -> Cycles {
    let native = OpLatencies::from_fn(graph, |op| cost.native_latency(op.shape()));
    critical_path_length(graph, &native)
}

/// One allocation problem in a batch: a sequencing graph, a λ budget and the
/// allocator configuration to solve it with.
#[derive(Debug, Clone)]
pub struct BatchJob {
    /// Human-readable label carried through to the [`crate::BatchReport`]
    /// (e.g. `"diamond/16/seed42"`).
    pub label: String,
    /// The sequencing graph to allocate.
    pub graph: SequencingGraph,
    /// The latency budget, resolved per graph at run time.
    pub latency: LatencySpec,
    /// Allocator options.  The `latency_constraint` field is overwritten
    /// with the resolved [`latency`](Self::latency) when the job runs.
    pub config: AllocConfig,
    /// Run the RTL equivalence oracle on the allocated datapath: lower it to
    /// a structural netlist (`mwl_rtl`), simulate
    /// [`BatchOptions::rtl_vectors`] random stimulus vectors cycle by cycle
    /// and compare bit-exactly against the reference fixed-point evaluation
    /// of the graph, plus a netlist-vs-datapath area cross-check.  Off by
    /// default; results land in [`crate::JobStats::rtl`].
    pub verify_rtl: bool,
    /// Race a portfolio of deterministic allocator variants instead of the
    /// single configured trajectory (see [`mwl_core::portfolio`]).  The
    /// winning variant's datapath becomes the job result — never worse than
    /// the plain configuration, bit-reproducible for a fixed spec — and
    /// portfolio statistics land in [`crate::JobStats::portfolio`].  `None`
    /// (the default) runs the plain allocator.
    pub portfolio: Option<PortfolioSpec>,
}

impl BatchJob {
    /// Creates a job with the default allocator configuration.
    #[must_use]
    pub fn new(label: impl Into<String>, graph: SequencingGraph, latency: LatencySpec) -> Self {
        BatchJob {
            label: label.into(),
            graph,
            latency,
            config: AllocConfig::new(0),
            verify_rtl: false,
            portfolio: None,
        }
    }

    /// Replaces the allocator configuration (its latency constraint is still
    /// overwritten by [`latency`](Self::latency) at run time).
    #[must_use]
    pub fn with_config(mut self, config: AllocConfig) -> Self {
        self.config = config;
        self
    }

    /// Enables or disables the per-job RTL equivalence check.
    #[must_use]
    pub fn with_rtl_check(mut self, enabled: bool) -> Self {
        self.verify_rtl = enabled;
        self
    }

    /// Enables portfolio racing for this job (see
    /// [`mwl_core::portfolio`]).  The winning datapath is deterministic for
    /// a fixed spec regardless of batch worker count.
    #[must_use]
    pub fn with_portfolio(mut self, spec: PortfolioSpec) -> Self {
        self.portfolio = Some(spec);
        self
    }
}

/// How a batch is executed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchOptions {
    /// Number of worker threads.  Clamped to `1..=jobs.len()` when the batch
    /// runs; the *results* are guaranteed identical for every value.
    pub workers: usize,
    /// Number of random stimulus vectors simulated per job when
    /// [`BatchJob::verify_rtl`] is set (clamped to at least 1 at run time).
    pub rtl_vectors: usize,
    /// Telemetry mode of each worker's stage recorder (see
    /// [`mwl_obs::StageRecorder`]).  Off by default; [`ObsMode::Stages`]
    /// times every stage, and [`ObsMode::Trace`] also emits Chrome trace
    /// events (collected via [`crate::run_batch_traced`]).  Reports never
    /// carry telemetry: they are bit-identical in every mode.
    pub obs: ObsMode,
}

impl BatchOptions {
    /// Options with an explicit worker count.
    #[must_use]
    pub fn with_workers(workers: usize) -> Self {
        BatchOptions {
            workers: workers.max(1),
            ..BatchOptions::default()
        }
    }

    /// Options with a single worker (the sequential reference execution).
    #[must_use]
    pub fn sequential() -> Self {
        BatchOptions::with_workers(1)
    }

    /// Sets the number of stimulus vectors per RTL-checked job.
    #[must_use]
    pub fn with_rtl_vectors(mut self, vectors: usize) -> Self {
        self.rtl_vectors = vectors.max(1);
        self
    }

    /// Sets the stage-level telemetry mode.
    #[must_use]
    pub fn with_obs(mut self, obs: ObsMode) -> Self {
        self.obs = obs;
        self
    }
}

impl Default for BatchOptions {
    /// One worker per available hardware thread and four stimulus vectors
    /// per RTL-checked job.
    fn default() -> Self {
        BatchOptions {
            workers: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            rtl_vectors: 4,
            obs: ObsMode::Off,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwl_model::{OpShape, SequencingGraphBuilder, SonicCostModel};

    fn chain() -> SequencingGraph {
        let mut b = SequencingGraphBuilder::new();
        let m = b.add_operation(OpShape::multiplier(16, 16));
        let a = b.add_operation(OpShape::adder(32));
        b.add_dependency(m, a).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn latency_specs_resolve() {
        let g = chain();
        let cost = SonicCostModel::default();
        // λ_min = ceil(32/8) + 2 = 6.
        assert_eq!(LatencySpec::Absolute(9).resolve(&g, &cost), 9);
        assert_eq!(LatencySpec::RelaxSteps(0).resolve(&g, &cost), 6);
        assert_eq!(LatencySpec::RelaxSteps(4).resolve(&g, &cost), 10);
        assert_eq!(LatencySpec::RelaxPercent(0).resolve(&g, &cost), 6);
        assert_eq!(LatencySpec::RelaxPercent(30).resolve(&g, &cost), 8); // ceil(7.8)
    }

    /// A chain of `n` 8-bit adders: `λ_min = 2n`.
    fn adder_chain(n: usize) -> SequencingGraph {
        let mut b = SequencingGraphBuilder::new();
        let mut prev = b.add_operation(OpShape::adder(8));
        for _ in 1..n {
            let next = b.add_operation(OpShape::adder(8));
            b.add_dependency(prev, next).unwrap();
            prev = next;
        }
        b.build().unwrap()
    }

    #[test]
    fn relax_percent_rounds_up_exactly_and_saturates() {
        let cost = SonicCostModel::default();
        let g = adder_chain(25);
        assert_eq!(LatencySpec::RelaxSteps(0).resolve(&g, &cost), 50);
        assert_eq!(LatencySpec::RelaxPercent(10).resolve(&g, &cost), 55);
        assert_eq!(LatencySpec::RelaxPercent(11).resolve(&g, &cost), 56); // ceil(55.5)
        let loosest = LatencySpec::RelaxPercent(u32::MAX);
        assert_eq!(loosest.resolve(&g, &cost), 2_147_483_698); // ceil(50 * 42949673.95)
        assert_eq!(loosest.resolve(&adder_chain(51), &cost), u32::MAX);
    }

    #[test]
    fn loosest_relax_steps_budget_saturates_and_solves() {
        let g = chain();
        let cost = SonicCostModel::default();
        let loosest = LatencySpec::RelaxSteps(u32::MAX);
        assert_eq!(loosest.resolve(&g, &cost), u32::MAX);
        let job = BatchJob::new("loosest", g, loosest);
        let outcome = crate::solve_job(0, &job, &cost, 1, &mut mwl_core::AllocScratch::new());
        assert!(outcome.result.is_ok(), "{:?}", outcome.result);
    }

    #[test]
    fn options_clamp_and_default() {
        assert_eq!(BatchOptions::with_workers(0).workers, 1);
        assert_eq!(BatchOptions::sequential().workers, 1);
        assert!(BatchOptions::default().workers >= 1);
        assert_eq!(BatchOptions::default().rtl_vectors, 4);
        assert_eq!(BatchOptions::default().with_rtl_vectors(0).rtl_vectors, 1);
        assert_eq!(BatchOptions::default().with_rtl_vectors(9).rtl_vectors, 9);
        assert_eq!(BatchOptions::default().obs, ObsMode::Off);
        assert_eq!(
            BatchOptions::sequential().with_obs(ObsMode::Stages).obs,
            ObsMode::Stages
        );
    }

    #[test]
    fn job_builder() {
        let job = BatchJob::new("j0", chain(), LatencySpec::RelaxSteps(2))
            .with_config(AllocConfig::new(0).with_instance_merging(false));
        assert_eq!(job.label, "j0");
        assert!(!job.config.instance_merging);
        assert!(!job.verify_rtl);
        assert!(job.portfolio.is_none());
        let job = job
            .with_rtl_check(true)
            .with_portfolio(PortfolioSpec::new(7, 6));
        assert!(job.verify_rtl);
        assert_eq!(job.portfolio, Some(PortfolioSpec::new(7, 6)));
    }
}

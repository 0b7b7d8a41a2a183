//! Batch-allocation throughput sweep over deterministic scenario families.
//!
//! Builds a reproducible job set spanning seven scenario families — the
//! paper's TGFF-style layered graphs plus wide/deep/diamond shapes, tight
//! and loose λ budgets, and bimodal "mixed" wordlength spreads — runs it
//! through [`mwl_driver::run_batch`] at several worker counts (one
//! [`measure::worker_sweep`]), verifies the reports are bit-identical, and
//! reports throughput in graphs per second.

use mwl_driver::{
    area_breakdown_json, run_batch, BatchJob, BatchOptions, BatchReport, LatencySpec,
};
use mwl_model::SonicCostModel;
use mwl_obs::json::{rounded, Check, Json, ObjectBuilder};
use mwl_tgff::{GraphShape, TgffConfig, TgffGenerator, WidthProfile};

use crate::measure::{self, worker_sweep, WorkerRow};

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

/// The seven scenario families of the batch sweep.
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

/// Parameters of the batch sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchSweepConfig {
    /// Graphs generated per scenario family.
    pub graphs_per_family: usize,
    /// Problem sizes |O| cycled through within each family.
    pub sizes: Vec<usize>,
    /// Seed of the first graph (job `i` of a family uses `seed + i`).
    pub seed: u64,
    /// Worker counts to measure, in order; every report is checked against
    /// the 1-worker reference run.
    pub worker_counts: Vec<usize>,
}

impl BatchSweepConfig {
    /// The default sweep: enough work per family for throughput numbers to
    /// mean something, measured at 1, 2, 4 and all-hardware-threads workers.
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

    /// A seconds-scale sweep for CI: two graphs per family at 1 and 2
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

    /// Overrides the measured worker counts.
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

/// Builds the deterministic job set of the sweep: `graphs_per_family` jobs
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

/// Aggregate results of one scenario family (from the reference run).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FamilyResult {
    /// Family name.
    pub name: &'static str,
    /// Jobs in the family.
    pub jobs: usize,
    /// Jobs that produced a datapath.
    pub succeeded: usize,
    /// Sum of datapath areas.
    pub total_area: u64,
    /// Sum of accepted instance merges.
    pub total_merges: usize,
}

/// The full result of a batch sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSweepResults {
    /// Total jobs in the sweep.
    pub jobs: usize,
    /// Per-family aggregates from the reference run.
    pub families: Vec<FamilyResult>,
    /// One row per measured worker count.
    pub throughput: Vec<WorkerRow>,
    /// The reference (1-worker) report.
    pub reference: BatchReport,
}

impl BatchSweepResults {
    /// Whether every measured worker count reproduced the reference report.
    #[must_use]
    fn all_identical(&self) -> bool {
        self.throughput.iter().all(|row| row.identical)
    }

    /// Renders a text table.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "Batch sweep: {} jobs over {} families\n",
            self.jobs,
            self.families.len()
        );
        out.push_str("family        jobs   ok   total area   merges\n");
        for f in &self.families {
            out.push_str(&format!(
                "{:<13} {:>4} {:>4} {:>12} {:>8}\n",
                f.name, f.jobs, f.succeeded, f.total_area, f.total_merges
            ));
        }
        out.push_str("\nworkers   seconds   graphs/sec   identical\n");
        for t in &self.throughput {
            out.push_str(&format!(
                "{:>7} {:>9.3} {:>12.1} {:>11}\n",
                t.workers, t.seconds, t.graphs_per_sec, t.identical
            ));
        }
        out
    }

    /// Every assertion `results/BENCH_batch.json` violates, given the
    /// worker counts the sweep ran at; the sweep exits on it.
    #[must_use]
    pub fn check(doc: &Json, worker_counts: &[usize]) -> Vec<String> {
        let mut c = Check::new(doc);
        c.is("all_identical", true);
        c.is("failed", 0u64);
        let names: Vec<Json> = scenario_families().iter().map(|f| f.name.into()).collect();
        let rows = c.column("families", "name") == names;
        c.require(rows, "families", "not one row per scenario family");
        let counts: Vec<Json> = worker_counts.iter().map(|&w| w.into()).collect();
        let rows = !counts.is_empty() && c.column("throughput", "workers") == counts;
        let message = format!("rows not at {worker_counts:?} workers");
        c.require(rows, "throughput", &message);
        c.same("area_breakdown.fu", "total_area");
        c.finish()
    }

    /// The machine-readable `results/BENCH_batch.json` document.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let summary = self.reference.summary();
        let families = self.families.iter().map(|f| {
            ObjectBuilder::new()
                .field("name", f.name)
                .field("jobs", f.jobs)
                .field("succeeded", f.succeeded)
                .field("total_area", f.total_area)
                .field("total_merges", f.total_merges)
                .build()
        });
        let throughput = self.throughput.iter().map(|t| {
            ObjectBuilder::new()
                .field("workers", t.workers)
                .field("seconds", rounded(t.seconds, 6))
                .field("graphs_per_sec", rounded(t.graphs_per_sec, 3))
                .field("identical", t.identical)
                .build()
        });
        ObjectBuilder::new()
            .field("jobs", self.jobs)
            .field("succeeded", summary.succeeded)
            .field("failed", summary.failed)
            .field("all_identical", self.all_identical())
            .field("total_area", summary.total_area)
            .field(
                "area_breakdown",
                area_breakdown_json(&summary.area_breakdown),
            )
            .field("families", families.collect::<Json>())
            .field("throughput", throughput.collect::<Json>())
            .build()
    }
}

/// Runs the sweep: builds the job set, measures each configured worker
/// count once, and verifies every report against the 1-worker reference.
#[must_use]
pub fn run_batch_sweep(config: &BatchSweepConfig) -> BatchSweepResults {
    let cost = SonicCostModel::default();
    let jobs = scenario_jobs(config);
    let reference = run_batch(&jobs, &cost, &BatchOptions::sequential());
    let throughput = worker_sweep(&jobs, &cost, &config.worker_counts, 1, &reference);

    let mut families = Vec::new();
    for family in scenario_families() {
        let prefix = format!("{}/", family.name);
        let mut result = FamilyResult {
            name: family.name,
            jobs: 0,
            succeeded: 0,
            total_area: 0,
            total_merges: 0,
        };
        for outcome in &reference.outcomes {
            if !outcome.label.starts_with(&prefix) {
                continue;
            }
            result.jobs += 1;
            if let Ok(stats) = &outcome.result {
                result.succeeded += 1;
                result.total_area += stats.area;
                result.total_merges += stats.merges;
            }
        }
        families.push(result);
    }

    BatchSweepResults {
        jobs: jobs.len(),
        families,
        throughput,
        reference,
    }
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
    fn smoke_sweep_passes_its_check_and_names_a_planted_violation() {
        let results = run_batch_sweep(&BatchSweepConfig::smoke());
        let text = results.to_json().encode_pretty();
        let violations = BatchSweepResults::check(&Json::parse(&text).unwrap(), &[1, 2]);
        assert_eq!(violations, Vec::<String>::new());
        assert_eq!(results.jobs, 7 * 2);
        for f in &results.families {
            assert_eq!((f.jobs, f.succeeded), (2, 2), "family {}", f.name);
        }
        let rows = results
            .throughput
            .iter()
            .map(|t| (t.workers, t.graphs_per_sec > 0.0));
        assert_eq!(rows.collect::<Vec<_>>(), [(1, true), (2, true)]);
        assert!(results.render_text().contains("graphs/sec"));

        let planted = text.replace("\"all_identical\": true", "\"all_identical\": false");
        let violations = BatchSweepResults::check(&Json::parse(&planted).unwrap(), &[1, 2]);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(
            violations[0].starts_with("all_identical: "),
            "{violations:?}"
        );
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

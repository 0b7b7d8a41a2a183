//! The allocation **perf gate**: the committed performance trajectory of the
//! single-graph hot path.
//!
//! Measures single-thread allocation throughput (graphs per second) of the
//! optimized allocator against the frozen pre-optimization implementation
//! ([`mwl_core::reference`]) on the scenario mix, verifies the
//! two are **bit-identical** (merging on and off), measures the batch driver
//! at several worker counts (verifying report identity), and writes a
//! schema-stable `BENCH_alloc.json` — committed at the repository root,
//! unlike the gitignored `results/` artifacts — so every future PR has a
//! trajectory to beat.
//!
//! The multi-core section records the machine's core count and the
//! 4-worker/1-worker speedup; on machines with fewer than 4 cores the ≥2×
//! check is *skipped, not failed* (the ROADMAP multi-core item), so the gate
//! stays green in single-core containers while the claim is re-checked
//! automatically the moment CI lands on real hardware.  Worker rows beyond
//! the core count are additionally labelled `noise_limited`: their numbers
//! are recorded but carry no scaling signal.
//!
//! The `stages` block of `BENCH_alloc.json` (schema **v3**) attributes the
//! live allocator's time to its stages: the allocator loop runs under
//! [`mwl_obs::ObsMode::Stages`] and the fastest repetition's
//! [`mwl_obs::StageNanos`] land as one `{"stage", "ns"}` row per exercised
//! stage.  The artifact has one baseline, the frozen reference behind the
//! speedup.  The reference, optimized and stage passes are the three arms
//! of one [`measure::interleaved`] call, so every repetition times all
//! three under the same machine conditions.  Timed regions measure the
//! allocator only: per-job latency-spec resolution and config setup happen
//! once, before any clock starts, and are shared by every measurement.

use mwl_core::{
    reference, AllocConfig, AllocError, AllocOutcome, AllocScratch, CachedCostModel, DpAllocator,
};
use mwl_driver::{area_breakdown_json, run_batch, BatchJob, BatchOptions};
use mwl_model::{AreaBreakdown, SonicCostModel};
use mwl_obs::json::{rounded, Check, Json, ObjectBuilder};
use mwl_obs::{ObsMode, Stage, StageNanos};

use crate::batch::{scenario_jobs, BatchSweepConfig};
use crate::measure::{self, worker_sweep, WorkerRow};

/// Required single-thread speedup of the optimized allocator over the frozen
/// reference (the PR's headline acceptance criterion, raised from 3× by the
/// round-2 bitset-kernel PR).
pub const SINGLE_THREAD_TARGET: f64 = 6.0;

/// Required 4-worker speedup over 1 worker on a ≥4-core machine.
pub const MULTI_CORE_TARGET: f64 = 2.0;

/// The schema version of `BENCH_alloc.json`.
const SCHEMA: &str = "mwl_perf_gate_v3";

/// Parameters of one perf-gate run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerfGateConfig {
    /// The scenario mix and the worker counts measured through the batch
    /// driver.
    pub sweep: BatchSweepConfig,
    /// Label recorded in the JSON (`"batch_sweep_smoke"` / `"batch_sweep_quick"`).
    pub scenario: &'static str,
    /// Timing repetitions per measurement; the fastest repetition is kept.
    pub repetitions: usize,
}

impl PerfGateConfig {
    /// The CI configuration: the smoke scenario mix at 1/2/4 workers.
    #[must_use]
    pub fn smoke() -> Self {
        PerfGateConfig {
            sweep: BatchSweepConfig::smoke().with_worker_counts(vec![1, 2, 4]),
            scenario: "batch_sweep_smoke",
            repetitions: 5,
        }
    }

    /// A longer mix for stabler local numbers.
    #[must_use]
    pub fn quick() -> Self {
        PerfGateConfig {
            sweep: BatchSweepConfig::quick().with_worker_counts(vec![1, 2, 4]),
            scenario: "batch_sweep_quick",
            repetitions: 3,
        }
    }
}

/// Fastest-repetition nanoseconds of one stage of the live allocator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageRow {
    /// Stage name (see [`mwl_obs::Stage::name`]).
    pub stage: &'static str,
    /// Nanoseconds spent in the stage over one pass of the mix.
    pub ns: u64,
}

/// Full results of a perf-gate run.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfGateResults {
    /// Scenario label.
    pub scenario: &'static str,
    /// Jobs in the mix.
    pub jobs: usize,
    /// Hardware threads visible to the process.
    pub cores: usize,
    /// Timing repetitions per measurement.
    pub repetitions: usize,
    /// Frozen-reference single-thread throughput, graphs/sec.
    pub reference_graphs_per_sec: f64,
    /// Optimized single-thread throughput, graphs/sec.
    pub optimized_graphs_per_sec: f64,
    /// `optimized / reference`.
    pub speedup: f64,
    /// Total FU area of the mix (from the 1-worker reference report).
    pub total_area: u64,
    /// Per-component area of the mix (fu equals `total_area`; register and
    /// mux are zero under the default zero storage coefficients).
    pub area_breakdown: AreaBreakdown,
    /// Optimized results equal the reference bit for bit, merging enabled.
    pub identical_merging_on: bool,
    /// Same with the merging pass disabled.
    pub identical_merging_off: bool,
    /// Driver throughput per worker count (`identical` vs the 1-worker run).
    pub workers: Vec<WorkerRow>,
    /// Per-stage nanoseconds of the live allocator, only stages the
    /// allocator loop actually exercised.
    pub stages: Vec<StageRow>,
    /// 4-worker/1-worker speedup when measured.
    pub multi_core_speedup: Option<f64>,
    /// Status of the multi-core check: `ok`, `below_target` on a ≥4-core
    /// machine that missed it, or `skipped_few_cores` (skipped, not
    /// failed).
    pub multi_core_status: &'static str,
}

impl PerfGateResults {
    /// Whether the single-thread speedup meets [`SINGLE_THREAD_TARGET`].
    #[must_use]
    pub fn meets_single_thread_target(&self) -> bool {
        self.speedup >= SINGLE_THREAD_TARGET
    }

    /// Renders a text table.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "Perf gate ({}, {} jobs, {} cores, best of {} reps)\n",
            self.scenario, self.jobs, self.cores, self.repetitions
        );
        out.push_str(&format!(
            "single thread: reference {:.1} graphs/s, optimized {:.1} graphs/s -> {:.2}x (target {:.1}x)\n",
            self.reference_graphs_per_sec,
            self.optimized_graphs_per_sec,
            self.speedup,
            SINGLE_THREAD_TARGET,
        ));
        out.push_str(&format!(
            "bit-identical: merging on {}, merging off {}\n",
            self.identical_merging_on, self.identical_merging_off
        ));
        out.push_str("workers   seconds   graphs/sec   identical   status\n");
        for w in &self.workers {
            out.push_str(&format!(
                "{:>7} {:>9.4} {:>12.1} {:>11}   {}\n",
                w.workers, w.seconds, w.graphs_per_sec, w.identical, w.status
            ));
        }
        out.push_str("stage            ns\n");
        for s in &self.stages {
            out.push_str(&format!("{:>8} {:>13}\n", s.stage, s.ns));
        }
        out.push_str(&format!(
            "multi-core (>= {:.0}x @ 4 workers): {}{}\n",
            MULTI_CORE_TARGET,
            self.multi_core_status,
            self.multi_core_speedup
                .map(|s| format!(" ({s:.2}x)"))
                .unwrap_or_default(),
        ));
        out
    }

    /// Every assertion `BENCH_alloc.json` violates, given the worker counts
    /// the gate ran at; the gate exits on it.
    #[must_use]
    pub fn check(doc: &Json, worker_counts: &[usize]) -> Vec<String> {
        let mut c = Check::new(doc);
        c.is("schema", SCHEMA);
        c.same("area_breakdown.fu", "total_area");
        c.is("bit_identical.merging_on", true);
        c.is("bit_identical.merging_off", true);
        c.is("bit_identical.workers", true);
        let counts: Vec<Json> = worker_counts.iter().map(|&w| w.into()).collect();
        let rows = c.column("throughput", "workers") == counts;
        let message = format!("rows not at {worker_counts:?} workers");
        c.require(rows, "throughput", &message);
        c.each("throughput", |row| {
            row.is("identical", true);
            row.positive("graphs_per_sec");
            let status = matches!(row.text("status"), "ok" | "noise_limited");
            row.require(status, "status", "not ok or noise_limited");
        });
        c.positive("single_thread.speedup");
        c.positive("single_thread.optimized_graphs_per_sec");
        c.is("single_thread.target_speedup", SINGLE_THREAD_TARGET);
        c.is("multi_core.target_speedup", MULTI_CORE_TARGET);
        let stages = c.column("stages", "stage");
        c.require(!stages.is_empty(), "stages", "empty profile");
        c.each("stages", |row| {
            row.keys("", &["stage", "ns"]);
            row.positive("ns");
        });
        for hot in ["bind", "schedule"] {
            let found = stages.contains(&hot.into());
            c.require(found, "stages", &format!("no {hot} row"));
        }
        let multi_core = matches!(c.text("multi_core.status"), "ok" | "skipped_few_cores");
        c.require(multi_core, "multi_core.status", "below target");
        c.finish()
    }

    /// The schema-stable `BENCH_alloc.json` document.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let single_thread = ObjectBuilder::new()
            .field(
                "reference_graphs_per_sec",
                rounded(self.reference_graphs_per_sec, 3),
            )
            .field(
                "optimized_graphs_per_sec",
                rounded(self.optimized_graphs_per_sec, 3),
            )
            .field("speedup", rounded(self.speedup, 3))
            .field("target_speedup", SINGLE_THREAD_TARGET)
            .field("meets_target", self.meets_single_thread_target());
        let bit_identical = ObjectBuilder::new()
            .field("merging_on", self.identical_merging_on)
            .field("merging_off", self.identical_merging_off)
            .field("workers", self.workers.iter().all(|w| w.identical));
        let throughput = self.workers.iter().map(|w| {
            ObjectBuilder::new()
                .field("workers", w.workers)
                .field("seconds", rounded(w.seconds, 6))
                .field("graphs_per_sec", rounded(w.graphs_per_sec, 3))
                .field("identical", w.identical)
                .field("status", w.status)
                .build()
        });
        let stages = self.stages.iter().map(|s| {
            ObjectBuilder::new()
                .field("stage", s.stage)
                .field("ns", s.ns)
                .build()
        });
        let multi_core = ObjectBuilder::new()
            .field("target_speedup", MULTI_CORE_TARGET)
            .field("at_workers", 4u64)
            .field(
                "achieved_speedup",
                self.multi_core_speedup.map(|s| rounded(s, 3)),
            )
            .field("status", self.multi_core_status);
        ObjectBuilder::new()
            .field("schema", SCHEMA)
            .field("scenario", self.scenario)
            .field("jobs", self.jobs)
            .field("cores", self.cores)
            .field("repetitions", self.repetitions)
            .field("total_area", self.total_area)
            .field("area_breakdown", area_breakdown_json(&self.area_breakdown))
            .field("single_thread", single_thread.build())
            .field("bit_identical", bit_identical.build())
            .field("throughput", throughput.collect::<Json>())
            .field("stages", stages.collect::<Json>())
            .field("multi_core", multi_core.build())
            .build()
    }
}

/// Resolves each job's latency spec and merging flag into a ready-to-run
/// [`AllocConfig`] — the per-job setup every measurement arm shares, done
/// once so no timed region pays for it.
fn resolved_configs(
    jobs: &[BatchJob],
    cache: &CachedCostModel<'_>,
    merging: bool,
) -> Vec<AllocConfig> {
    jobs.iter()
        .map(|job| {
            let mut config = job.config.clone();
            config.latency_constraint = job.latency.resolve(&job.graph, cache);
            config.instance_merging = merging;
            config
        })
        .collect()
}

/// Per-job allocation outcomes of the mix under pre-resolved configs.
fn job_outcomes(
    jobs: &[BatchJob],
    configs: &[AllocConfig],
    cache: &CachedCostModel<'_>,
    optimized: bool,
    scratch: &mut AllocScratch,
) -> Vec<Result<AllocOutcome, AllocError>> {
    jobs.iter()
        .zip(configs)
        .map(|(job, config)| {
            if optimized {
                DpAllocator::new(cache, config.clone()).allocate_with_scratch(&job.graph, scratch)
            } else {
                reference::allocate_with_stats(cache, config, &job.graph)
            }
        })
        .collect()
}

/// The stage profile as [`StageRow`]s, keeping only stages the allocator
/// loop exercised.
fn stage_rows(nanos: &StageNanos) -> Vec<StageRow> {
    Stage::ALL
        .iter()
        .filter_map(|&stage| {
            let ns = nanos.get(stage);
            (ns > 0).then_some(StageRow {
                stage: stage.name(),
                ns,
            })
        })
        .collect()
}

/// Runs the full perf gate (see the module docs).
#[must_use]
pub fn run_perf_gate(config: &PerfGateConfig) -> PerfGateResults {
    let cost = SonicCostModel::default();
    let jobs = scenario_jobs(&config.sweep);
    let mut cache = CachedCostModel::new(&cost);
    for job in &jobs {
        cache.warm_graph(&job.graph);
    }

    // Per-job configs, resolved once and shared by every arm below.
    let merging_on = resolved_configs(&jobs, &cache, true);
    let merging_off = resolved_configs(&jobs, &cache, false);

    // Bit-identity, merging on and off (the hard gate).  These passes also
    // warm the scratch the timed arms share.
    let mut scratch = AllocScratch::new();
    let identical_merging_on = job_outcomes(&jobs, &merging_on, &cache, true, &mut scratch)
        == job_outcomes(&jobs, &merging_on, &cache, false, &mut scratch);
    let identical_merging_off = job_outcomes(&jobs, &merging_off, &cache, true, &mut scratch)
        == job_outcomes(&jobs, &merging_off, &cache, false, &mut scratch);

    // Single-thread throughput of the frozen reference and the optimized
    // allocator, and the optimized allocator's stage profile, per repetition.
    const REFERENCE: usize = 0;
    const OPTIMIZED: usize = 1;
    const STAGES: usize = 2;
    let mut stage_reps = Vec::with_capacity(config.repetitions);
    let timings = measure::interleaved(
        3,
        config.repetitions,
        |arm| match arm {
            REFERENCE => job_outcomes(&jobs, &merging_on, &cache, false, &mut scratch),
            OPTIMIZED => job_outcomes(&jobs, &merging_on, &cache, true, &mut scratch),
            _ => {
                scratch.obs.set_mode(ObsMode::Stages);
                let outcomes = job_outcomes(&jobs, &merging_on, &cache, true, &mut scratch);
                scratch.obs.set_mode(ObsMode::Off);
                stage_reps.push(scratch.obs.take_stages());
                outcomes
            }
        },
        |_, outcomes| assert_eq!(outcomes.len(), jobs.len()),
    );
    let reference_graphs_per_sec = jobs.len() as f64 / timings.best(REFERENCE);
    let optimized_graphs_per_sec = jobs.len() as f64 / timings.best(OPTIMIZED);
    let stages = stage_rows(&stage_reps[timings.fastest(STAGES)]);

    // Driver throughput per worker count, identity-checked against the
    // 1-worker report.
    let cores = measure::cores();
    let reference_report = run_batch(&jobs, &cost, &BatchOptions::sequential());
    let workers = worker_sweep(
        &jobs,
        &cost,
        &config.sweep.worker_counts,
        config.repetitions,
        &reference_report,
    );
    let gps_at = |count: usize| {
        workers
            .iter()
            .find(|w| w.workers == count)
            .map(|w| w.graphs_per_sec)
    };
    let multi_core_speedup = match (gps_at(1), gps_at(4)) {
        (Some(one), Some(four)) if one > 0.0 => Some(four / one),
        _ => None,
    };
    let multi_core_status = if cores < 4 {
        "skipped_few_cores"
    } else {
        match multi_core_speedup {
            Some(s) if s >= MULTI_CORE_TARGET => "ok",
            _ => "below_target",
        }
    };

    let summary = reference_report.summary();
    PerfGateResults {
        scenario: config.scenario,
        jobs: jobs.len(),
        cores,
        repetitions: config.repetitions,
        reference_graphs_per_sec,
        optimized_graphs_per_sec,
        speedup: optimized_graphs_per_sec / reference_graphs_per_sec,
        total_area: summary.total_area,
        area_breakdown: summary.area_breakdown,
        identical_merging_on,
        identical_merging_off,
        workers,
        stages,
        multi_core_speedup,
        multi_core_status,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> PerfGateConfig {
        PerfGateConfig {
            sweep: BatchSweepConfig::smoke().with_graphs(1),
            scenario: "test_tiny",
            repetitions: 1,
        }
    }

    /// The check covers identity, positive throughput and speedup, the
    /// worker rows, and the schedule and bind stage rows the allocator loop
    /// always exercises.
    #[test]
    fn gate_passes_its_check() {
        let results = run_perf_gate(&tiny());
        let json = Json::parse(&results.to_json().encode_pretty()).unwrap();
        // The tiny sweep never reaches 4 workers, so a >= 4-core machine
        // reports the multi-core check below target.
        let violations = PerfGateResults::check(&json, &[1, 2]);
        let multi_core = violations.iter().all(|v| v.starts_with("multi_core."));
        assert!(multi_core, "{violations:?}");
        assert_eq!(json.get("scenario"), Some(&Json::from("test_tiny")));
        assert!(results.render_text().contains("graphs/s"));
    }
}

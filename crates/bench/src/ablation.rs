//! The ablation gate: what each part of the heuristic is worth in area, in
//! the committed `BENCH_ablation.json`.
//!
//! The batch sweep's scenario jobs are solved under four allocator configs,
//! the four arms of one [`measure::interleaved`] run: the default, and the
//! default with one part switched off — BindSelect's clique growth, the
//! bound-critical-path refinement rule (replaced by refining the first
//! refinable operation) and the post-bind instance merge.  Outside the
//! clock every datapath must validate and meet its λ, and no job may lose
//! area when merging is switched off: the merge pass only accepts strict
//! area drops on the very datapath the merge-off run returns.
//!
//! Per arm and per scenario family the gate reports total area, its delta
//! to the default arm, and the refinement, escalation and merge counts.

use mwl_core::{
    AllocConfig, AllocError, AllocOutcome, AllocScratch, DpAllocator, RefinementPolicy,
};
use mwl_driver::{batch_cache, BatchJob};
use mwl_model::{Area, SonicCostModel};
use mwl_obs::json::{rounded, Check, Json, ObjectBuilder};

use crate::batch::{scenario_families, scenario_jobs, BatchSweepConfig};
use crate::measure;

/// A change to a job's config.
type Configure = fn(AllocConfig) -> AllocConfig;

/// The arms, in order: a name and the change it makes to a job's config.
const ARMS: [(&str, Configure); 4] = [
    ("default", |config| config),
    ("no_growth", |config| config.with_clique_growth(false)),
    ("first_refinable", |config| {
        config.with_refinement(RefinementPolicy::FirstRefinable)
    }),
    ("no_merging", |config| config.with_instance_merging(false)),
];
const DEFAULT: usize = 0;
const NO_MERGING: usize = 3;

/// The schema version of `BENCH_ablation.json`.
const SCHEMA: &str = "mwl_ablation_gate_v1";

/// Interleaved repetitions of the four arms.
const REPETITIONS: usize = 10;

/// Area and decision counts summed over a set of jobs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AblationTotals {
    /// Jobs summed (failed ones count here and nowhere else).
    pub jobs: usize,
    /// Sum of datapath areas.
    pub total_area: Area,
    /// Sum of wordlength refinements.
    pub refinements: usize,
    /// Sum of resource-bound escalations.
    pub escalations: usize,
    /// Sum of accepted instance merges.
    pub merges: usize,
}

/// One arm's allocations and time.
#[derive(Debug, Clone, PartialEq)]
pub struct ArmResult {
    /// Arm name: `default`, `no_growth`, `first_refinable` or `no_merging`.
    pub name: &'static str,
    /// Per-job outcomes, in job order.
    pub outcomes: Vec<Result<AllocOutcome, AllocError>>,
    /// Seconds of the arm's fastest pass over every job.
    pub best_seconds: f64,
}

/// The full result of an ablation run.
#[derive(Debug, Clone)]
pub struct AblationResults {
    /// The solved jobs.
    pub jobs: Vec<BatchJob>,
    /// One result per arm, the default first.
    pub arms: Vec<ArmResult>,
    /// Every failed check; the gate passes when this is empty.
    pub violations: Vec<String>,
}

impl AblationResults {
    /// The arm's totals over the jobs of `family`, or over every job.
    #[must_use]
    pub fn totals(&self, arm: usize, family: Option<&str>) -> AblationTotals {
        let mut totals = AblationTotals::default();
        for (job, outcome) in self.jobs.iter().zip(&self.arms[arm].outcomes) {
            if family.is_some_and(|f| job.label.split('/').next() != Some(f)) {
                continue;
            }
            totals.jobs += 1;
            if let Ok(o) = outcome {
                totals.total_area += o.datapath.area();
                totals.refinements += o.refinements;
                totals.escalations += o.bound_escalations;
                totals.merges += o.merges;
            }
        }
        totals
    }

    /// The arm's area minus the default arm's, over the same jobs.
    #[must_use]
    pub fn area_delta(&self, arm: usize, family: Option<&str>) -> i64 {
        self.totals(arm, family).total_area as i64 - self.totals(DEFAULT, family).total_area as i64
    }

    /// Every assertion `BENCH_ablation.json` violates, each entry of its
    /// `violations` list among them; the gate exits on it.
    #[must_use]
    pub fn check(doc: &Json) -> Vec<String> {
        let mut c = Check::new(doc);
        c.is("schema", SCHEMA);
        c.is("violations", Json::Array(Vec::new()));
        let names: Vec<Json> = ARMS.iter().map(|&(name, _)| name.into()).collect();
        let arms = c.column("arms", "name") == names;
        c.require(arms, "arms", "not the four arms in order");
        let default = c.num("arms.0.total_area");
        c.each("arms", |arm| {
            let delta = arm.num("total_area") - default == arm.num("area_delta");
            arm.require(delta, "area_delta", "not area - default area");
        });
        c.finish()
    }

    /// The schema-stable `BENCH_ablation.json` document.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let row = |name: &str, arm: usize, family: Option<&str>| {
            let t = self.totals(arm, family);
            ObjectBuilder::new()
                .field("name", name)
                .field("jobs", t.jobs)
                .field("total_area", t.total_area)
                .field("area_delta", Json::Int(self.area_delta(arm, family)))
                .field("refinements", t.refinements)
                .field("escalations", t.escalations)
                .field("merges", t.merges)
        };
        let arms = self.arms.iter().enumerate().map(|(arm, result)| {
            let families = scenario_families()
                .into_iter()
                .map(|family| row(family.name, arm, Some(family.name)).build());
            row(result.name, arm, None)
                .field("best_seconds", rounded(result.best_seconds, 6))
                .field("families", families.collect::<Json>())
                .build()
        });
        ObjectBuilder::new()
            .field("schema", SCHEMA)
            .field("jobs", self.jobs.len())
            .field("repetitions", REPETITIONS)
            .field("arms", arms.collect::<Json>())
            .field(
                "violations",
                self.violations.iter().map(String::as_str).collect::<Json>(),
            )
            .build()
    }
}

/// Solves the sweep's scenario jobs under each arm's config, interleaved,
/// then checks every datapath and the merge arm outside the clock.
#[must_use]
pub fn run_ablation(sweep: &BatchSweepConfig) -> AblationResults {
    let cost = SonicCostModel::default();
    let jobs = scenario_jobs(sweep);
    let cache = batch_cache(&cost, &jobs);
    let configs: Vec<Vec<AllocConfig>> = ARMS
        .iter()
        .map(|(_, configure)| {
            jobs.iter()
                .map(|job| {
                    let mut config = job.config.clone();
                    config.latency_constraint = job.latency.resolve(&job.graph, &cache);
                    configure(config)
                })
                .collect()
        })
        .collect();

    let mut scratch = AllocScratch::new();
    let mut outcomes = vec![Vec::new(); ARMS.len()];
    let timings = measure::interleaved(
        ARMS.len(),
        REPETITIONS,
        |arm| {
            jobs.iter()
                .zip(&configs[arm])
                .map(|(job, config)| {
                    DpAllocator::new(&cache, config.clone())
                        .allocate_with_scratch(&job.graph, &mut scratch)
                })
                .collect::<Vec<_>>()
        },
        |arm, output| outcomes[arm] = output,
    );

    let mut violations = Vec::new();
    for (j, job) in jobs.iter().enumerate() {
        for (arm, (name, _)) in ARMS.iter().enumerate() {
            let lambda = configs[arm][j].latency_constraint;
            let problem = match &outcomes[arm][j] {
                Err(e) => format!("allocation failed: {e}"),
                Ok(o) => match o.datapath.validate(&job.graph, &cost) {
                    Err(e) => format!("invalid datapath: {e}"),
                    Ok(()) if o.datapath.latency() > lambda => {
                        format!("latency {} exceeds λ = {lambda}", o.datapath.latency())
                    }
                    Ok(()) => continue,
                },
            };
            violations.push(format!("{name} {}: {problem}", job.label));
        }
        let area = |arm: usize| outcomes[arm][j].as_ref().map_or(0, |o| o.datapath.area());
        if area(NO_MERGING) < area(DEFAULT) {
            violations.push(format!(
                "no_merging {}: area {} is below the default's {}",
                job.label,
                area(NO_MERGING),
                area(DEFAULT)
            ));
        }
    }

    let arms = ARMS
        .iter()
        .zip(outcomes)
        .enumerate()
        .map(|(arm, (&(name, _), outcomes))| ArmResult {
            name,
            outcomes,
            best_seconds: timings.best(arm),
        })
        .collect();
    AblationResults {
        jobs,
        arms,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwl_driver::solve_job;

    #[test]
    fn every_arm_validates_and_the_default_arm_is_the_driver() {
        let sweep = BatchSweepConfig::smoke();
        let results = run_ablation(&sweep);
        assert!(results.violations.is_empty(), "{:?}", results.violations);
        let cost = SonicCostModel::default();
        let jobs = scenario_jobs(&sweep);
        for (arm, result) in results.arms.iter().enumerate() {
            assert_eq!(result.name, ARMS[arm].0);
            assert_eq!(result.outcomes.len(), jobs.len());
            for (job, outcome) in jobs.iter().zip(&result.outcomes) {
                let datapath = &outcome.as_ref().expect("every arm solves").datapath;
                datapath.validate(&job.graph, &cost).unwrap();
            }
            // The per-family rows tile the job set.
            let whole = results.totals(arm, None);
            let tiled = scenario_families()
                .iter()
                .map(|f| results.totals(arm, Some(f.name)))
                .fold((0, 0), |(jobs, area), t| {
                    (jobs + t.jobs, area + t.total_area)
                });
            assert_eq!(whole.jobs, jobs.len());
            assert_eq!(tiled, (whole.jobs, whole.total_area));
        }
        let mut scratch = AllocScratch::new();
        for (index, job) in jobs.iter().enumerate() {
            let label = &job.label;
            let merged = results.arms[DEFAULT].outcomes[index].as_ref().unwrap();
            let unmerged = results.arms[NO_MERGING].outcomes[index].as_ref().unwrap();
            assert!(
                unmerged.datapath.area() >= merged.datapath.area(),
                "{label}"
            );
            let driver = solve_job(index, job, &cost, 0, &mut scratch)
                .result
                .unwrap();
            assert_eq!(results.jobs[index].label, *label);
            assert_eq!(
                (
                    driver.area,
                    driver.refinements,
                    driver.bound_escalations,
                    driver.merges
                ),
                (
                    merged.datapath.area(),
                    merged.refinements,
                    merged.bound_escalations,
                    merged.merges
                ),
                "{label}"
            );
        }
        let json = results.to_json();
        assert_eq!(Json::parse(&json.encode_pretty()).unwrap(), json);
        assert_eq!(AblationResults::check(&json), Vec::<String>::new());
    }
}

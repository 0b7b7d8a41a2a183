//! The portfolio gate: determinism, never-worse and gap-closed checks for
//! the racing allocator, plus the schema-stable `BENCH_portfolio.json` —
//! committed at the repository root.
//!
//! Three hard properties are measured over the batch sweep's scenario
//! families:
//!
//! 1. **Determinism** — the full [`PortfolioOutcome`] (winner key, variant
//!    reports, the winning datapath itself) is bit-identical at every
//!    worker count and across independent reruns.
//! 2. **Never worse** — the portfolio's winner never has more area than
//!    variant 0, the plain single-trajectory allocator (variant 0 always
//!    races, so this holds by construction; the gate re-verifies it
//!    end to end).
//! 3. **Improves somewhere** — at least one scenario family closes a
//!    strictly positive area gap, i.e. the race is not a no-op.
//!
//! How far the race gets towards proven ILP optima is measured by the
//! paper study ([`crate::run_paper_study`]).
//!
//! [`PortfolioOutcome`]: mwl_core::PortfolioOutcome

use mwl_core::{run_portfolio, PortfolioSpec};
use mwl_model::SonicCostModel;
use mwl_obs::json::{Check, Json, ObjectBuilder};

use crate::batch::{scenario_jobs, BatchSweepConfig};

/// The schema version of `BENCH_portfolio.json`.
const SCHEMA: &str = "mwl_portfolio_gate_v2";

/// Parameters of a portfolio-gate run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortfolioGateConfig {
    /// The scenario mix raced by the gate, and the worker counts its
    /// determinism check runs at (each count must reproduce the first bit
    /// for bit; the first count is also rerun once to catch any run-to-run
    /// drift).
    pub sweep: BatchSweepConfig,
    /// Scenario label recorded in the results.
    pub scenario: &'static str,
    /// Master seed of every raced portfolio.
    pub seed: u64,
    /// Variants per portfolio (variant 0 is always the plain allocator).
    pub variants: usize,
}

impl PortfolioGateConfig {
    /// The CI mode: a seconds-scale race over the smoke sweep.
    #[must_use]
    pub fn smoke() -> Self {
        PortfolioGateConfig {
            sweep: BatchSweepConfig::smoke().with_worker_counts(vec![1, 2, 4]),
            scenario: "smoke",
            seed: 2001,
            variants: 8,
        }
    }

    /// A larger mix for committed numbers.
    #[must_use]
    pub fn quick() -> Self {
        PortfolioGateConfig {
            sweep: BatchSweepConfig::quick()
                .with_graphs(6)
                .with_worker_counts(vec![1, 2, 4]),
            scenario: "quick",
            seed: 2001,
            variants: 12,
        }
    }
}

/// Aggregate race results of one scenario family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FamilyGateRow {
    /// Family name (the job-label prefix).
    pub name: String,
    /// Jobs raced.
    pub jobs: usize,
    /// Jobs whose portfolio produced a datapath.
    pub solved: usize,
    /// Jobs won by a non-baseline variant with strictly positive savings.
    pub improved: usize,
    /// Jobs where the winner had *more* area than variant 0 (must be 0).
    pub regressed: usize,
    /// Sum of variant-0 areas over solved jobs.
    pub baseline_area: u64,
    /// Sum of winning areas over the same jobs.
    pub portfolio_area: u64,
}

impl FamilyGateRow {
    /// Area saved by the race across the family.
    #[must_use]
    fn area_saved(&self) -> u64 {
        self.baseline_area.saturating_sub(self.portfolio_area)
    }
}

/// Full results of a portfolio-gate run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortfolioGateResults {
    /// Scenario label.
    pub scenario: &'static str,
    /// Master portfolio seed.
    pub seed: u64,
    /// Variants per race.
    pub variants: usize,
    /// Jobs raced.
    pub jobs: usize,
    /// Jobs whose portfolio produced a datapath.
    pub solved: usize,
    /// Jobs improved over the baseline variant.
    pub improved: usize,
    /// Jobs regressed below the baseline variant (hard gate: must be 0).
    pub regressed: usize,
    /// Per-family aggregates.
    pub families: Vec<FamilyGateRow>,
    /// Worker counts the determinism check covered.
    pub worker_counts: Vec<usize>,
    /// Portfolio runs compared for bit-identity (reruns included).
    pub determinism_runs: usize,
    /// Whether every rerun reproduced the reference outcome bit for bit.
    pub determinism_ok: bool,
}

impl PortfolioGateResults {
    /// Sum of variant-0 areas over all solved jobs.
    #[must_use]
    fn baseline_area(&self) -> u64 {
        self.families.iter().map(|f| f.baseline_area).sum()
    }

    /// Sum of winning areas over the same jobs.
    #[must_use]
    fn portfolio_area(&self) -> u64 {
        self.families.iter().map(|f| f.portfolio_area).sum()
    }

    /// Total area saved by the races.
    #[must_use]
    fn area_saved(&self) -> u64 {
        self.baseline_area() - self.portfolio_area()
    }

    /// The never-worse gate: no job regressed below its baseline variant.
    #[must_use]
    fn never_worse(&self) -> bool {
        self.regressed == 0
    }

    /// The usefulness gate: at least one family closed a strictly positive
    /// area gap.
    #[must_use]
    fn improved_somewhere(&self) -> bool {
        self.families.iter().any(|f| f.area_saved() > 0)
    }

    /// Renders a text table.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "Portfolio gate ({}, {} jobs, seed {}, {} variants)\n",
            self.scenario, self.jobs, self.seed, self.variants
        );
        out.push_str(&format!(
            "determinism: {} runs at {:?} workers -> {}\n",
            self.determinism_runs,
            self.worker_counts,
            if self.determinism_ok {
                "bit-identical"
            } else {
                "DIVERGED"
            }
        ));
        out.push_str(
            "family         jobs  solved  improved  regressed  baseline  portfolio  saved\n",
        );
        for f in &self.families {
            out.push_str(&format!(
                "{:<13} {:>5} {:>7} {:>9} {:>10} {:>9} {:>10} {:>6}\n",
                f.name,
                f.jobs,
                f.solved,
                f.improved,
                f.regressed,
                f.baseline_area,
                f.portfolio_area,
                f.area_saved()
            ));
        }
        out.push_str(&format!(
            "total: {} improved / {} solved, {} area saved ({} -> {})\n",
            self.improved,
            self.solved,
            self.area_saved(),
            self.baseline_area(),
            self.portfolio_area()
        ));
        out.push_str(&format!(
            "gates: never_worse {}, improved_somewhere {}, deterministic {}\n",
            self.never_worse(),
            self.improved_somewhere(),
            self.determinism_ok
        ));
        out
    }

    /// Every assertion `BENCH_portfolio.json` violates, given the worker
    /// counts determinism ran at; the gate exits on it.
    #[must_use]
    pub fn check(doc: &Json, worker_counts: &[usize]) -> Vec<String> {
        let mut c = Check::new(doc);
        c.is("schema", SCHEMA);
        c.positive("jobs");
        c.same("solved", "jobs");
        let counts: Json = worker_counts.iter().copied().collect();
        c.is("determinism.worker_counts", counts);
        c.is("determinism.ok", true);
        let reruns = c.num("determinism.runs") > c.num("jobs");
        c.require(reruns, "determinism.runs", "no reruns");
        c.is("gates.deterministic", true);
        c.is("gates.never_worse", true);
        c.is("gates.improved_somewhere", true);
        c.is("regressed", 0u64);
        let saved = c.num("area.baseline") - c.num("area.portfolio") == c.num("area.saved");
        c.require(saved, "area.saved", "not baseline - portfolio");
        c.positive("area.saved");
        let rows: i64 = c
            .column("families", "jobs")
            .iter()
            .filter_map(Json::as_i64)
            .sum();
        let tiled = rows as f64 == c.num("jobs");
        c.require(tiled, "families", "rows do not tile the job set");
        c.each("families", |f| f.is("regressed", 0u64));
        c.finish()
    }

    /// The schema-stable `BENCH_portfolio.json` document.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let area = ObjectBuilder::new()
            .field("baseline", self.baseline_area())
            .field("portfolio", self.portfolio_area())
            .field("saved", self.area_saved());
        let determinism = ObjectBuilder::new()
            .field(
                "worker_counts",
                self.worker_counts.iter().copied().collect::<Json>(),
            )
            .field("runs", self.determinism_runs)
            .field("ok", self.determinism_ok);
        let families = self.families.iter().map(|f| {
            ObjectBuilder::new()
                .field("name", f.name.as_str())
                .field("jobs", f.jobs)
                .field("solved", f.solved)
                .field("improved", f.improved)
                .field("regressed", f.regressed)
                .field("baseline_area", f.baseline_area)
                .field("portfolio_area", f.portfolio_area)
                .field("area_saved", f.area_saved())
                .build()
        });
        let gates = ObjectBuilder::new()
            .field("never_worse", self.never_worse())
            .field("improved_somewhere", self.improved_somewhere())
            .field("deterministic", self.determinism_ok);
        ObjectBuilder::new()
            .field("schema", SCHEMA)
            .field("scenario", self.scenario)
            .field("seed", self.seed)
            .field("variants", self.variants)
            .field("jobs", self.jobs)
            .field("solved", self.solved)
            .field("improved", self.improved)
            .field("regressed", self.regressed)
            .field("area", area.build())
            .field("determinism", determinism.build())
            .field("families", families.collect::<Json>())
            .field("gates", gates.build())
            .build()
    }
}

/// Races every scenario job, checks determinism across worker counts and
/// reruns, and aggregates per-family savings.
#[must_use]
pub fn run_portfolio_gate(config: &PortfolioGateConfig) -> PortfolioGateResults {
    let cost = SonicCostModel::default();
    let spec = PortfolioSpec::new(config.seed, config.variants);
    let jobs = scenario_jobs(&config.sweep);

    let mut families: Vec<FamilyGateRow> = Vec::new();
    let mut solved = 0usize;
    let mut improved = 0usize;
    let mut regressed = 0usize;
    let mut determinism_runs = 0usize;
    let mut determinism_ok = true;

    for job in &jobs {
        let lambda = job.latency.resolve(&job.graph, &cost);
        let mut base = job.config.clone();
        base.latency_constraint = lambda;

        let reference = run_portfolio(&cost, &job.graph, &base, spec, 1);
        determinism_runs += 1;
        // Every configured worker count — plus one same-count rerun to
        // catch run-to-run drift — must reproduce the reference outcome
        // bit for bit.
        let mut rerun_counts: Vec<usize> = config.sweep.worker_counts.clone();
        rerun_counts.push(*config.sweep.worker_counts.first().unwrap_or(&1));
        for &workers in &rerun_counts {
            let again = run_portfolio(&cost, &job.graph, &base, spec, workers);
            determinism_runs += 1;
            let identical = match (&reference, &again) {
                (Ok(a), Ok(b)) => a == b,
                (Err(a), Err(b)) => a.to_string() == b.to_string(),
                _ => false,
            };
            determinism_ok &= identical;
        }

        let family = job.label.split('/').next().unwrap_or("?").to_string();
        if !families.iter().any(|f| f.name == family) {
            families.push(FamilyGateRow {
                name: family.clone(),
                jobs: 0,
                solved: 0,
                improved: 0,
                regressed: 0,
                baseline_area: 0,
                portfolio_area: 0,
            });
        }
        let row = families
            .iter_mut()
            .find(|f| f.name == family)
            .expect("row just ensured");
        row.jobs += 1;
        if let Ok(outcome) = &reference {
            row.solved += 1;
            solved += 1;
            let won = outcome.best.datapath.area();
            // variant 0 solves whenever the portfolio does: a portfolio
            // error *is* the baseline's error.
            let baseline = outcome.variant0_area.unwrap_or(won);
            row.baseline_area += baseline;
            row.portfolio_area += won;
            if won < baseline {
                row.improved += 1;
                improved += 1;
            } else if won > baseline {
                row.regressed += 1;
                regressed += 1;
            }
        }
    }

    PortfolioGateResults {
        scenario: config.scenario,
        seed: config.seed,
        variants: config.variants,
        jobs: jobs.len(),
        solved,
        improved,
        regressed,
        families,
        worker_counts: config.sweep.worker_counts.clone(),
        determinism_runs,
        determinism_ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> PortfolioGateConfig {
        PortfolioGateConfig {
            sweep: BatchSweepConfig::smoke().with_graphs(1),
            scenario: "tiny",
            seed: 2001,
            variants: 5,
        }
    }

    #[test]
    fn gate_passes_its_check_and_is_a_pure_function_of_its_config() {
        let results = run_portfolio_gate(&tiny());
        let json = Json::parse(&results.to_json().encode_pretty()).unwrap();
        let violations = PortfolioGateResults::check(&json, &[1, 2]);
        assert_eq!(violations, Vec::<String>::new());
        assert_eq!(results.jobs, 7, "one job per scenario family");
        let text = results.render_text();
        assert!(text.contains("Portfolio gate (tiny, 7 jobs, seed 2001, 5 variants)"));
        assert!(text.contains("gates: never_worse true"));
        assert_eq!(results, run_portfolio_gate(&tiny()));
    }
}

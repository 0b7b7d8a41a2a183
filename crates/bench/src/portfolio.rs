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
//! On small graphs the gate additionally solves the time-indexed ILP of
//! [`mwl_optimal`] and reports how much of the baseline-to-optimal area gap
//! the portfolio closes, with a soundness check that no winner ever beats a
//! proven optimum.
//!
//! [`PortfolioOutcome`]: mwl_core::PortfolioOutcome

use std::time::Duration;

use mwl_core::{run_portfolio, AllocConfig, PortfolioSpec};
use mwl_model::SonicCostModel;
use mwl_obs::json::{rounded, Check, Json, ObjectBuilder};
use mwl_optimal::IlpAllocator;
use mwl_tgff::{TgffConfig, TgffGenerator};

use crate::batch::{scenario_jobs, BatchSweepConfig};
use crate::sweep::lambda_min;

/// The schema version of `BENCH_portfolio.json`.
const SCHEMA: &str = "mwl_portfolio_gate_v1";

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
    /// Problem sizes |O| of the ILP gap study.
    pub ilp_sizes: Vec<usize>,
    /// Graphs per ILP problem size.
    pub ilp_graphs_per_size: usize,
    /// Wall-clock budget per ILP solve; graphs that time out are excluded
    /// from the gap figures (and counted).
    pub ilp_time_limit: Duration,
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
            ilp_sizes: vec![5, 6, 8],
            ilp_graphs_per_size: 2,
            ilp_time_limit: Duration::from_secs(2),
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
            ilp_sizes: vec![5, 6, 7, 8, 9, 10],
            ilp_graphs_per_size: 3,
            ilp_time_limit: Duration::from_secs(5),
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

/// The ILP gap study at one problem size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IlpGapRow {
    /// Number of operations |O|.
    pub ops: usize,
    /// Graphs attempted.
    pub graphs: usize,
    /// Graphs with a proven ILP optimum within the time limit (only these
    /// contribute to the gap figures).
    pub proven: usize,
    /// Graphs whose ILP solve timed out or failed.
    pub timed_out: usize,
    /// Graphs where the portfolio matched the proven optimum exactly.
    pub matched_optimal: usize,
    /// Sum over proven graphs of `variant0_area - optimal_area`.
    pub baseline_gap: u64,
    /// Sum over the same graphs of `portfolio_area - optimal_area`.
    pub portfolio_gap: u64,
    /// Graphs where the winner undercut a proven optimum (must be 0 — a
    /// nonzero count means an area-accounting bug, not a better design).
    pub unsound: usize,
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
    /// The ILP gap study, one row per problem size.
    pub ilp: Vec<IlpGapRow>,
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

    /// The never-worse gate: no job regressed below its baseline variant
    /// and no winner undercut a proven ILP optimum.
    #[must_use]
    fn never_worse(&self) -> bool {
        self.regressed == 0 && self.ilp.iter().all(|r| r.unsound == 0)
    }

    /// The usefulness gate: at least one family closed a strictly positive
    /// area gap.
    #[must_use]
    fn improved_somewhere(&self) -> bool {
        self.families.iter().any(|f| f.area_saved() > 0)
    }

    /// Percentage of the baseline-to-optimal area gap the portfolio closed,
    /// over all graphs with a proven optimum.  `None` when the baseline was
    /// already optimal everywhere (no gap to close).
    #[must_use]
    fn gap_closed_percent(&self) -> Option<f64> {
        let baseline: u64 = self.ilp.iter().map(|r| r.baseline_gap).sum();
        let portfolio: u64 = self.ilp.iter().map(|r| r.portfolio_gap).sum();
        if baseline == 0 {
            return None;
        }
        Some(100.0 * (baseline - portfolio) as f64 / baseline as f64)
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
        out.push_str("ILP gap study (lambda = lambda_min):\n");
        out.push_str("|O|   graphs  proven  timed-out  matched  baseline-gap  portfolio-gap\n");
        for r in &self.ilp {
            out.push_str(&format!(
                "{:<5} {:>6} {:>7} {:>10} {:>8} {:>13} {:>14}\n",
                r.ops,
                r.graphs,
                r.proven,
                r.timed_out,
                r.matched_optimal,
                r.baseline_gap,
                r.portfolio_gap
            ));
        }
        out.push_str(&format!(
            "gap closed to optimum: {}\n",
            self.gap_closed_percent()
                .map(|p| format!("{p:.1}%"))
                .unwrap_or_else(|| "n/a (baseline already optimal)".into())
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
        c.each("ilp", |row| row.is("unsound", 0u64));
        // Null when the heuristic already matched every proven optimum.
        let gap = c.num("gap_closed_percent");
        let closed =
            c.value("gap_closed_percent") == Some(&Json::Null) || (0.0..=100.0).contains(&gap);
        c.require(closed, "gap_closed_percent", "not null or a percentage");
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
        let ilp = self.ilp.iter().map(|r| {
            ObjectBuilder::new()
                .field("ops", r.ops)
                .field("graphs", r.graphs)
                .field("proven", r.proven)
                .field("timed_out", r.timed_out)
                .field("matched_optimal", r.matched_optimal)
                .field("baseline_gap", r.baseline_gap)
                .field("portfolio_gap", r.portfolio_gap)
                .field("unsound", r.unsound)
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
            .field("ilp", ilp.collect::<Json>())
            .field(
                "gap_closed_percent",
                self.gap_closed_percent().map(|p| rounded(p, 3)),
            )
            .field("gates", gates.build())
            .build()
    }
}

/// Races every scenario job, checks determinism across worker counts and
/// reruns, aggregates per-family savings, and runs the ILP gap study.
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

    let ilp = run_ilp_gap_study(config, &cost, spec);

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
        ilp,
    }
}

/// Solves small graphs to proven optimality and measures how much of the
/// baseline-to-optimal gap the portfolio closes at λ = λ_min.
fn run_ilp_gap_study(
    config: &PortfolioGateConfig,
    cost: &SonicCostModel,
    spec: PortfolioSpec,
) -> Vec<IlpGapRow> {
    let mut rows = Vec::new();
    for &ops in &config.ilp_sizes {
        let mut generator = TgffGenerator::new(
            TgffConfig::with_ops(ops),
            config.seed.wrapping_add(97 * ops as u64),
        );
        let mut row = IlpGapRow {
            ops,
            graphs: 0,
            proven: 0,
            timed_out: 0,
            matched_optimal: 0,
            baseline_gap: 0,
            portfolio_gap: 0,
            unsound: 0,
        };
        for _ in 0..config.ilp_graphs_per_size {
            let graph = generator.generate();
            let lambda = lambda_min(&graph, cost);
            row.graphs += 1;
            let optimal = match IlpAllocator::new(cost, lambda)
                .with_time_limit(config.ilp_time_limit)
                .allocate(&graph)
            {
                Ok(out) if out.stats.proven_optimal => out.datapath.area(),
                _ => {
                    row.timed_out += 1;
                    continue;
                }
            };
            let Ok(outcome) = run_portfolio(cost, &graph, &AllocConfig::new(lambda), spec, 1)
            else {
                row.timed_out += 1;
                continue;
            };
            row.proven += 1;
            let won = outcome.best.datapath.area();
            let baseline = outcome.variant0_area.unwrap_or(won);
            if won == optimal {
                row.matched_optimal += 1;
            }
            if won < optimal {
                row.unsound += 1;
            }
            row.baseline_gap += baseline.saturating_sub(optimal);
            row.portfolio_gap += won.saturating_sub(optimal);
        }
        rows.push(row);
    }
    rows
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
            ilp_sizes: vec![3],
            ilp_graphs_per_size: 1,
            ilp_time_limit: Duration::from_secs(1),
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

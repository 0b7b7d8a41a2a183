//! The paper study: Section 3's evaluation (Figures 3–5 and Table 2) and
//! the portfolio's distance to proven optima, as views over one run that
//! writes the committed `BENCH_paper.json`.
//!
//! The study runs over `(|O|, slack%)` cells.  Each |O| draws one
//! population of TGFF graphs, and every slack of that |O| reuses it: the
//! paired design of the paper's Table 2.  In a cell, λ is
//! [`LatencySpec::RelaxPercent`] of the slack, so slack 0 is λ_min, and
//! every graph runs once each:
//!
//! * the heuristic ([`DpAllocator`]), timed;
//! * the two-stage baseline \[4\] ([`TwoStageAllocator`]);
//! * in the cells that run the ILP, the time-indexed ILP \[5\]
//!   ([`IlpAllocator`]) under a per-solve time limit and a per-cell budget,
//!   timed, and the portfolio race ([`run_portfolio`]).
//!
//! | View | Cells | Reads |
//! |------|-------|-------|
//! | Figure 3 | every cell | mean area penalty of two-stage over the heuristic |
//! | Figure 4 | ILP cells at slack 0 | area premium of the heuristic over proven optima |
//! | Figure 5 | every cell at slack 0 | heuristic and ILP time |
//! | Table 2 | ILP cells at the table's \|O\| | heuristic and ILP time by slack |
//! | Portfolio | ILP cells | baseline-to-optimum area gap the race closes |
//!
//! Times are reported, not checked.  An ILP total that includes an
//! unproven solve, or a graph the cell's budget left unsolved, is a lower
//! bound and prints with `>` (the paper's ">30:00.00").

use std::time::{Duration, Instant};

use mwl_baselines::TwoStageAllocator;
use mwl_core::{run_portfolio, AllocConfig, DpAllocator, PortfolioSpec};
use mwl_driver::LatencySpec;
use mwl_model::{Area, SequencingGraph, SonicCostModel};
use mwl_obs::json::{rounded, Check, Json, ObjectBuilder};
use mwl_optimal::IlpAllocator;
use mwl_tgff::{TgffConfig, TgffGenerator};

/// The schema version of `BENCH_paper.json`.
const SCHEMA: &str = "mwl_paper_study_v1";

/// One `(|O|, slack%)` cell of the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellSpec {
    /// Number of operations |O|.
    pub ops: usize,
    /// Latency slack in percent of λ_min.
    pub slack_percent: u32,
    /// Whether the cell runs the ILP and the portfolio race.
    pub ilp: bool,
}

/// Parameters of a paper-study run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PaperStudyConfig {
    /// Preset label recorded in the results.
    pub preset: &'static str,
    /// Master seed: |O|'s population comes from `seed ^ (|O| << 8)`, and
    /// every portfolio race uses it.
    pub seed: u64,
    /// Graphs per |O| (the paper uses 200).
    pub graphs: usize,
    /// The cells, in `(ops, slack)` order.
    pub cells: Vec<CellSpec>,
    /// The |O| of Table 2 (the paper uses 9).
    pub table_ops: usize,
    /// Wall-clock limit per ILP solve.
    pub ilp_time_limit: Duration,
    /// ILP time per cell after which its remaining graphs go unsolved.
    pub ilp_cell_budget: Duration,
    /// Variants per portfolio race.
    pub variants: usize,
}

/// The union of `(sizes × slacks, runs the ILP)` grids, in `(ops, slack)`
/// order; a cell in several grids runs the ILP when any of them does.
fn union(grids: &[(&[usize], &[u32], bool)]) -> Vec<CellSpec> {
    let mut cells: Vec<CellSpec> = Vec::new();
    for &(sizes, slacks, ilp) in grids {
        for &ops in sizes {
            for &slack_percent in slacks {
                match cells
                    .iter_mut()
                    .find(|c| (c.ops, c.slack_percent) == (ops, slack_percent))
                {
                    Some(cell) => cell.ilp |= ilp,
                    None => cells.push(CellSpec {
                        ops,
                        slack_percent,
                        ilp,
                    }),
                }
            }
        }
    }
    cells.sort_by_key(|c| (c.ops, c.slack_percent));
    cells
}

impl PaperStudyConfig {
    /// The CI mode: a seconds-scale study with every view populated.
    #[must_use]
    pub fn smoke() -> Self {
        PaperStudyConfig {
            preset: "smoke",
            seed: 2001,
            graphs: 4,
            cells: union(&[
                (&[4, 8, 12, 16], &[0, 10, 30], false),
                (&[1, 2, 3, 4, 5, 6], &[0], true),
                (&[6], &[0, 5, 10, 15], true),
            ]),
            table_ops: 6,
            ilp_time_limit: Duration::from_secs(2),
            ilp_cell_budget: Duration::from_secs(10),
            variants: 8,
        }
    }

    /// The committed numbers: the figures' reduced grids, minutes on a
    /// development machine.
    #[must_use]
    pub fn quick() -> Self {
        PaperStudyConfig {
            preset: "quick",
            seed: 2001,
            graphs: 20,
            cells: union(&[
                (&[2, 4, 6, 8, 12, 16, 20, 24], &[0, 10, 20, 30], false),
                (&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10], &[0], true),
                (&[9], &[0, 5, 10, 15], true),
            ]),
            table_ops: 9,
            ilp_time_limit: Duration::from_secs(5),
            ilp_cell_budget: Duration::from_secs(60),
            variants: 12,
        }
    }

    /// The paper's grids and counts (slow).
    #[must_use]
    pub fn paper() -> Self {
        let sizes: Vec<usize> = (1..=24).collect();
        PaperStudyConfig {
            preset: "paper",
            seed: 2001,
            graphs: 200,
            cells: union(&[
                (&sizes, &[0, 5, 10, 15, 20, 25, 30], false),
                (&sizes[..10], &[0], true),
                (&[9], &[0, 5, 10, 15], true),
            ]),
            table_ops: 9,
            ilp_time_limit: Duration::from_secs(120),
            ilp_cell_budget: Duration::from_secs(30 * 60),
            variants: 12,
        }
    }
}

/// The ILP and portfolio columns of one cell.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IlpCell {
    /// Graphs with a proven optimum.
    pub proven: usize,
    /// Graphs without one: the solve hit its time limit or failed, or the
    /// cell's budget was spent before it ran.
    pub timed_out: usize,
    /// Total ILP time.
    pub time: Duration,
    /// Sum of the proven optima.
    pub optimal_area: Area,
    /// The heuristic's premium over each proven optimum it ran beside, in
    /// percent.
    pub premiums: Vec<f64>,
    /// Graphs the portfolio race failed on.
    pub portfolio_failed: usize,
    /// Proven graphs whose portfolio winner met the optimum.
    pub matched_optimal: usize,
    /// Sum over proven graphs of variant 0's area above the optimum.
    pub baseline_gap: Area,
    /// Sum over the same graphs of the winner's area above the optimum.
    pub portfolio_gap: Area,
}

/// One cell's runs, summed over its graphs.
#[derive(Debug, Clone, PartialEq)]
pub struct PaperCell {
    /// The cell.
    pub spec: CellSpec,
    /// Graphs run.
    pub graphs: usize,
    /// Graphs the heuristic failed on.
    pub heuristic_failed: usize,
    /// Sum of the heuristic's areas.
    pub heuristic_area: Area,
    /// Total heuristic time.
    pub heuristic_time: Duration,
    /// Graphs the two-stage baseline failed on.
    pub two_stage_failed: usize,
    /// Sum of the two-stage baseline's areas.
    pub two_stage_area: Area,
    /// Two-stage's area penalty over the heuristic on each graph both
    /// solved, in percent (positive: the heuristic wins).
    pub penalties: Vec<f64>,
    /// The ILP columns, in the cells that run it.
    pub ilp: Option<IlpCell>,
    /// Graphs where the heuristic, two-stage or the portfolio winner has
    /// less area than a proven optimum (an accounting fault).
    pub unsound: usize,
}

/// The mean of `values`, or `None` when there are none.
fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

impl PaperCell {
    /// Fig. 3's mean two-stage penalty.
    fn mean_penalty(&self) -> Option<f64> {
        mean(&self.penalties)
    }
}

impl IlpCell {
    /// The total ILP time, prefixed `>` when it is a lower bound: some graph
    /// has no proven optimum.
    fn time_text(&self) -> String {
        let bound = if self.timed_out > 0 { ">" } else { "" };
        format!("{bound}{:.3?}", self.time)
    }
}

/// The results of a paper-study run.
#[derive(Debug, Clone, PartialEq)]
pub struct PaperStudyResults {
    /// The configuration run.
    pub config: PaperStudyConfig,
    /// One entry per configured cell, in order.
    pub cells: Vec<PaperCell>,
}

impl PaperStudyResults {
    /// The ILP cells with their ILP columns.
    fn ilp_cells(&self) -> impl Iterator<Item = (&PaperCell, &IlpCell)> {
        self.cells
            .iter()
            .filter_map(|c| c.ilp.as_ref().map(|ilp| (c, ilp)))
    }

    /// Percentage of the baseline-to-optimum area gap the portfolio closed
    /// over every proven graph; `None` when variant 0 met every optimum.
    #[must_use]
    pub fn gap_closed_percent(&self) -> Option<f64> {
        let baseline: Area = self.ilp_cells().map(|(_, i)| i.baseline_gap).sum();
        let portfolio: Area = self.ilp_cells().map(|(_, i)| i.portfolio_gap).sum();
        (baseline > 0).then(|| 100.0 * baseline.saturating_sub(portfolio) as f64 / baseline as f64)
    }

    /// The four paper tables and the portfolio rows as text.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut slacks: Vec<u32> = self.cells.iter().map(|c| c.spec.slack_percent).collect();
        slacks.sort_unstable();
        slacks.dedup();
        let mut sizes: Vec<usize> = self.cells.iter().map(|c| c.spec.ops).collect();
        sizes.sort_unstable();
        sizes.dedup();
        let cell = |ops, slack| {
            self.cells
                .iter()
                .find(|c| (c.spec.ops, c.spec.slack_percent) == (ops, slack))
        };

        let mut out = format!(
            "Paper study ({}, {} graphs per |O|, seed {})\n\n",
            self.config.preset, self.config.graphs, self.config.seed
        );
        out.push_str("Figure 3: mean area penalty (%) of two-stage [4] over the heuristic\n|O|  ");
        for s in &slacks {
            out.push_str(&format!("{:>9}", format!("+{s}%")));
        }
        out.push('\n');
        for &ops in &sizes {
            out.push_str(&format!("{ops:<5}"));
            for &s in &slacks {
                match cell(ops, s).and_then(PaperCell::mean_penalty) {
                    Some(p) => out.push_str(&format!("{p:>9.1}")),
                    None => out.push_str(&format!("{:>9}", "-")),
                }
            }
            out.push('\n');
        }

        out.push_str("\nFigure 4: area premium (%) of the heuristic over the ILP optimum [5]\n");
        out.push_str("|O|   mean%    max%  proven  timed-out  heuristic-failed\n");
        for (c, ilp) in self.ilp_cells().filter(|(c, _)| c.spec.slack_percent == 0) {
            let stat = |v: Option<f64>| v.map_or_else(|| "-".into(), |p| format!("{p:.1}"));
            let max = ilp.premiums.iter().copied().reduce(f64::max);
            out.push_str(&format!(
                "{:<5} {:>6}  {:>6}  {:>6}  {:>9}  {:>16}\n",
                c.spec.ops,
                stat(mean(&ilp.premiums)),
                stat(max),
                ilp.proven,
                ilp.timed_out,
                c.heuristic_failed
            ));
        }

        out.push_str(
            "\nFigure 5: execution time vs number of operations (totals, lambda = lambda_min)\n",
        );
        out.push_str("|O|    heuristic           ILP  ILP timeouts  graphs\n");
        for c in self.cells.iter().filter(|c| c.spec.slack_percent == 0) {
            let (ilp, timeouts) = c.ilp.as_ref().map_or(("-".into(), "-".into()), |i| {
                (i.time_text(), i.timed_out.to_string())
            });
            out.push_str(&format!(
                "{:<5} {:>10.3?}  {ilp:>12}  {timeouts:>12}  {:>6}\n",
                c.spec.ops, c.heuristic_time, c.graphs
            ));
        }

        out.push_str(&format!(
            "\nTable 2: execution time vs latency constraint ({}-operation graphs)\n",
            self.config.table_ops
        ));
        out.push_str("lambda/lambda_min   heuristic           ILP  ILP timeouts  graphs\n");
        for (c, ilp) in self
            .ilp_cells()
            .filter(|(c, _)| c.spec.ops == self.config.table_ops)
        {
            let ratio = 1.0 + f64::from(c.spec.slack_percent) / 100.0;
            out.push_str(&format!(
                "{ratio:<18.2}  {:>10.3?}  {:>12}  {:>12}  {:>6}\n",
                c.heuristic_time,
                ilp.time_text(),
                ilp.timed_out,
                c.graphs
            ));
        }

        out.push_str("\nPortfolio vs proven optima:\n");
        out.push_str("|O|   slack  proven  matched  baseline-gap  portfolio-gap\n");
        for (c, ilp) in self.ilp_cells() {
            out.push_str(&format!(
                "{:<5} {:>4}%  {:>6}  {:>7}  {:>12}  {:>13}\n",
                c.spec.ops,
                c.spec.slack_percent,
                ilp.proven,
                ilp.matched_optimal,
                ilp.baseline_gap,
                ilp.portfolio_gap
            ));
        }
        out.push_str(&format!(
            "gap closed to optimum: {}\n",
            self.gap_closed_percent().map_or_else(
                || "n/a (baseline already optimal)".into(),
                |p| format!("{p:.1}%")
            )
        ));
        out
    }

    /// Every assertion `BENCH_paper.json` violates; the binary exits on
    /// it.  Times are not checked.
    #[must_use]
    pub fn check(doc: &Json) -> Vec<String> {
        let mut c = Check::new(doc);
        c.is("schema", SCHEMA);
        c.positive("graphs");
        c.each("cells", |cell| {
            cell.is("unsound", 0u64);
            if cell.value("ilp") != Some(&Json::Null) {
                let tiled =
                    cell.num("ilp.proven") + cell.num("ilp.timed_out") == cell.num("graphs");
                cell.require(tiled, "ilp", "proven + timed_out is not graphs");
            }
        });
        // Two-stage beats the heuristic on some graphs, and on average in a
        // few small cells, so the paper's claim is checked over the whole
        // figure.
        let penalties: Vec<f64> = c
            .column("cells", "two_stage_penalty_percent")
            .iter()
            .map(|p| Check::new(p).num(""))
            .filter(|p| p.is_finite())
            .collect();
        let penalty = mean(&penalties).unwrap_or(f64::NAN);
        c.require(
            penalty > 0.0,
            "cells",
            &format!("mean two-stage penalty {penalty} is not positive"),
        );
        // Null when variant 0 already met every proven optimum.
        let gap = c.num("gap_closed_percent");
        let closed =
            c.value("gap_closed_percent") == Some(&Json::Null) || (0.0..=100.0).contains(&gap);
        c.require(closed, "gap_closed_percent", "not null or a percentage");
        c.finish()
    }

    /// The schema-stable `BENCH_paper.json` document.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let percent = |p: Option<f64>| p.map(|p| rounded(p, 4));
        let cells = self.cells.iter().map(|c| {
            let ilp = c.ilp.as_ref().map(|i| {
                ObjectBuilder::new()
                    .field("proven", i.proven)
                    .field("timed_out", i.timed_out)
                    .field("seconds", rounded(i.time.as_secs_f64(), 6))
                    .field("optimal_area", i.optimal_area)
                    .field("premium_mean_percent", percent(mean(&i.premiums)))
                    .field(
                        "premium_max_percent",
                        percent(i.premiums.iter().copied().reduce(f64::max)),
                    )
                    .field("portfolio_failed", i.portfolio_failed)
                    .field("matched_optimal", i.matched_optimal)
                    .field("baseline_gap", i.baseline_gap)
                    .field("portfolio_gap", i.portfolio_gap)
                    .build()
            });
            ObjectBuilder::new()
                .field("ops", c.spec.ops)
                .field("slack_percent", c.spec.slack_percent)
                .field("graphs", c.graphs)
                .field("heuristic_failed", c.heuristic_failed)
                .field("heuristic_area", c.heuristic_area)
                .field(
                    "heuristic_seconds",
                    rounded(c.heuristic_time.as_secs_f64(), 6),
                )
                .field("two_stage_failed", c.two_stage_failed)
                .field("two_stage_area", c.two_stage_area)
                .field("two_stage_penalty_percent", percent(c.mean_penalty()))
                .field("unsound", c.unsound)
                .field("ilp", ilp)
                .build()
        });
        let config = &self.config;
        ObjectBuilder::new()
            .field("schema", SCHEMA)
            .field("preset", config.preset)
            .field("seed", config.seed)
            .field("graphs", config.graphs)
            .field("table_ops", config.table_ops)
            .field(
                "ilp_time_limit_seconds",
                config.ilp_time_limit.as_secs_f64(),
            )
            .field(
                "ilp_cell_budget_seconds",
                config.ilp_cell_budget.as_secs_f64(),
            )
            .field("variants", config.variants)
            .field("cells", cells.collect::<Json>())
            .field("gap_closed_percent", percent(self.gap_closed_percent()))
            .build()
    }
}

/// Runs every cell of the study.  Cells of one |O| share its population,
/// drawn once when the first of them runs.
#[must_use]
pub fn run_paper_study(config: &PaperStudyConfig) -> PaperStudyResults {
    let cost = SonicCostModel::default();
    let mut population: (Option<usize>, Vec<SequencingGraph>) = (None, Vec::new());
    let cells = config
        .cells
        .iter()
        .map(|&spec| {
            if population.0 != Some(spec.ops) {
                let mut generator = TgffGenerator::new(
                    TgffConfig::with_ops(spec.ops),
                    config.seed ^ (spec.ops as u64) << 8,
                );
                let graphs = (0..config.graphs).map(|_| generator.generate()).collect();
                population = (Some(spec.ops), graphs);
            }
            run_cell(config, spec, &population.1, &cost)
        })
        .collect();
    PaperStudyResults {
        config: config.clone(),
        cells,
    }
}

/// Runs one cell over its population.
fn run_cell(
    config: &PaperStudyConfig,
    spec: CellSpec,
    graphs: &[SequencingGraph],
    cost: &SonicCostModel,
) -> PaperCell {
    let mut cell = PaperCell {
        spec,
        graphs: graphs.len(),
        heuristic_failed: 0,
        heuristic_area: 0,
        heuristic_time: Duration::ZERO,
        two_stage_failed: 0,
        two_stage_area: 0,
        penalties: Vec::new(),
        ilp: spec.ilp.then(IlpCell::default),
        unsound: 0,
    };
    let race = PortfolioSpec::new(config.seed, config.variants);
    for graph in graphs {
        let lambda = LatencySpec::RelaxPercent(spec.slack_percent).resolve(graph, cost);
        let start = Instant::now();
        let heuristic = DpAllocator::new(cost, AllocConfig::new(lambda)).allocate(graph);
        cell.heuristic_time += start.elapsed();
        let heuristic = heuristic.ok().map(|d| d.area());
        let two_stage = TwoStageAllocator::new(cost, lambda)
            .allocate(graph)
            .ok()
            .map(|d| d.area());
        match heuristic {
            Some(area) => cell.heuristic_area += area,
            None => cell.heuristic_failed += 1,
        }
        match two_stage {
            Some(area) => cell.two_stage_area += area,
            None => cell.two_stage_failed += 1,
        }
        if let (Some(h), Some(t)) = (heuristic, two_stage) {
            if h > 0 {
                cell.penalties
                    .push((t as f64 - h as f64) / h as f64 * 100.0);
            }
        }

        let Some(ilp) = &mut cell.ilp else { continue };
        let mut optimum = None;
        if ilp.time < config.ilp_cell_budget {
            let start = Instant::now();
            let solve = IlpAllocator::new(cost, lambda)
                .with_time_limit(config.ilp_time_limit)
                .allocate(graph);
            ilp.time += start.elapsed();
            optimum = solve
                .ok()
                .filter(|o| o.stats.proven_optimal)
                .map(|o| o.datapath.area());
        }
        let winner = match run_portfolio(cost, graph, &AllocConfig::new(lambda), race, 1) {
            Ok(outcome) => Some((
                outcome.best.datapath.area(),
                outcome
                    .variant0_area
                    .unwrap_or(outcome.best.datapath.area()),
            )),
            Err(_) => {
                ilp.portfolio_failed += 1;
                None
            }
        };
        let Some(optimum) = optimum else {
            ilp.timed_out += 1;
            continue;
        };
        ilp.proven += 1;
        ilp.optimal_area += optimum;
        if let Some(h) = heuristic.filter(|_| optimum > 0) {
            ilp.premiums
                .push((h as f64 - optimum as f64) / optimum as f64 * 100.0);
        }
        if let Some((won, baseline)) = winner {
            ilp.matched_optimal += usize::from(won == optimum);
            ilp.baseline_gap += baseline.saturating_sub(optimum);
            ilp.portfolio_gap += won.saturating_sub(optimum);
        }
        let below = |area: Option<Area>| area.is_some_and(|a| a < optimum);
        if below(heuristic) || below(two_stage) || below(winner.map(|(won, _)| won)) {
            cell.unsound += 1;
        }
    }
    cell
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> PaperStudyConfig {
        PaperStudyConfig {
            preset: "tiny",
            seed: 2001,
            graphs: 3,
            cells: union(&[(&[3, 7], &[0], true), (&[5, 8], &[0, 20], false)]),
            table_ops: 5,
            ilp_time_limit: Duration::from_secs(60),
            ilp_cell_budget: Duration::from_secs(600),
            variants: 4,
        }
    }

    /// Each cell's area columns, one line per cell.
    fn area_columns(doc: &Json) -> String {
        let c = Check::new(doc);
        let mut out = String::new();
        for i in 0..c.column("cells", "ops").len() {
            let at = |key: &str| {
                let value = c.value(&format!("cells.{i}.{key}"));
                value.map_or_else(|| "-".into(), Json::encode)
            };
            out.push_str(&format!(
                "{}/{}: {} {} {} {} {} {}\n",
                at("ops"),
                at("slack_percent"),
                at("heuristic_area"),
                at("two_stage_area"),
                at("two_stage_penalty_percent"),
                at("ilp.optimal_area"),
                at("ilp.baseline_gap"),
                at("ilp.portfolio_gap"),
            ));
        }
        out
    }

    #[test]
    fn cells_are_the_union_of_the_grids_in_order() {
        let cells = union(&[(&[4, 2], &[10, 0], false), (&[2, 3], &[0], true)]);
        let got: Vec<(usize, u32, bool)> = cells
            .iter()
            .map(|c| (c.ops, c.slack_percent, c.ilp))
            .collect();
        assert_eq!(
            got,
            [
                (2, 0, true),
                (2, 10, false),
                (3, 0, true),
                (4, 0, false),
                (4, 10, false)
            ]
        );
        for config in [
            PaperStudyConfig::smoke(),
            PaperStudyConfig::quick(),
            PaperStudyConfig::paper(),
        ] {
            let table = config
                .cells
                .iter()
                .filter(|c| c.ops == config.table_ops && c.ilp);
            assert_eq!(table.count(), 4, "{}", config.preset);
        }
    }

    /// The area columns of a seconds-scale study are pinned, and a second
    /// run reproduces them.
    #[test]
    fn area_columns_are_pinned_and_reproducible() {
        let results = run_paper_study(&tiny());
        let doc = Json::parse(&results.to_json().encode_pretty()).unwrap();
        assert_eq!(PaperStudyResults::check(&doc), Vec::<String>::new());
        // ops/slack: heuristic, two-stage, penalty %, optimum, variant 0's
        // and the winner's gap to it.
        let golden = concat!(
            "3/0: 807 807 0.0 807 0 0\n",
            "5/0: 2468 2468 0.0 - - -\n",
            "5/20: 2221 2468 20.0324 - - -\n",
            "7/0: 2355 2447 3.0007 2177 178 178\n",
            "8/0: 2084 2133 1.6943 - - -\n",
            "8/20: 1537 2036 28.7145 - - -\n",
        );
        assert_eq!(area_columns(&doc), golden);
        let again = run_paper_study(&tiny()).to_json();
        assert_eq!(area_columns(&again), golden);
    }

    /// Cells whose solves all stop at their time limit print their Table 2
    /// totals as lower bounds and count each timeout.
    #[test]
    fn unproven_solves_are_lower_bounds_and_counted() {
        let mut config = tiny();
        config.cells = union(&[(&[5], &[0, 10], true)]);
        config.ilp_time_limit = Duration::ZERO;
        let results = run_paper_study(&config);
        for cell in &results.cells {
            let ilp = cell.ilp.as_ref().unwrap();
            assert_eq!((ilp.proven, ilp.timed_out), (0, 3));
        }
        let text = results.render_text();
        let table: Vec<&str> = text
            .lines()
            .skip_while(|l| !l.starts_with("Table 2"))
            .skip(2)
            .take(2)
            .collect();
        assert_eq!(table.len(), 2, "{text}");
        for row in table {
            assert!(row.contains('>'), "{row}");
            assert!(row.split_whitespace().nth(3) == Some("3"), "{row}");
        }
    }

    /// The check names a cell with an unsound area and an ILP cell whose
    /// counts do not tile its graphs.
    #[test]
    fn check_names_unsound_cells_and_untiled_ilp_counts() {
        let results = run_paper_study(&tiny());
        let text = results.to_json().encode_pretty();
        let planted = text.replacen("\"unsound\": 0", "\"unsound\": 1", 1);
        let violations = PaperStudyResults::check(&Json::parse(&planted).unwrap());
        assert_eq!(violations, ["cells[0].unsound: expected 0, found 1"]);
        let planted = text.replacen("\"timed_out\": 0", "\"timed_out\": 1", 1);
        let violations = PaperStudyResults::check(&Json::parse(&planted).unwrap());
        assert_eq!(
            violations,
            ["cells[0].ilp: proven + timed_out is not graphs"]
        );
    }
}

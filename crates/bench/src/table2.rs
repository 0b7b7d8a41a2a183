//! Table 2: execution time as a function of the latency constraint
//! (`λ/λ_min`) for 9-operation sequencing graphs.

use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use mwl_core::{AllocConfig, DpAllocator};
use mwl_driver::LatencySpec;
use mwl_model::SonicCostModel;
use mwl_optimal::IlpAllocator;
use mwl_tgff::{TgffConfig, TgffGenerator};

use crate::sweep::SweepConfig;

/// Parameters of the Table 2 sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table2Config {
    /// Number of operations per graph (the paper uses 9).
    pub ops: usize,
    /// Latency relaxations `λ/λ_min` in percent (the paper uses 0, 5, 10, 15).
    pub relaxations: Vec<u32>,
    /// Shared sweep settings.
    pub sweep: SweepConfig,
    /// Total ILP budget per relaxation row; once exceeded the row is reported
    /// as a lower bound (the paper prints ">30:00.00").
    pub ilp_row_budget: Duration,
}

impl Table2Config {
    /// The paper's parameters (200 nine-operation graphs per row).
    #[must_use]
    pub fn paper() -> Self {
        Table2Config {
            ops: 9,
            relaxations: vec![0, 5, 10, 15],
            sweep: SweepConfig::paper(),
            ilp_row_budget: Duration::from_secs(30 * 60),
        }
    }

    /// A reduced version with a small per-row budget.
    #[must_use]
    pub fn quick() -> Self {
        Table2Config {
            ops: 9,
            relaxations: vec![0, 5, 10, 15],
            sweep: SweepConfig::quick(),
            ilp_row_budget: Duration::from_secs(60),
        }
    }
}

/// One row of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Table2Row {
    /// Latency relaxation in percent of `λ_min`.
    pub relaxation_percent: u32,
    /// Total heuristic execution time over the swept graphs.
    pub heuristic_time: Duration,
    /// Total ILP execution time over the swept graphs.
    pub ilp_time: Duration,
    /// Whether the ILP row budget was exhausted (the reported time is then a
    /// lower bound, analogous to the paper's ">30:00.00" entry).
    pub ilp_budget_exhausted: bool,
    /// Number of graphs evaluated.
    pub graphs: usize,
}

/// The full Table 2.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table2Results {
    /// One row per latency relaxation.
    pub rows: Vec<Table2Row>,
}

impl Table2Results {
    /// Renders the table as fixed-width text in the paper's layout.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out =
            String::from("Table 2: execution time vs latency constraint (9-operation graphs)\n");
        out.push_str("lambda/lambda_min   heuristic        ILP\n");
        for r in &self.rows {
            let ratio = 1.0 + f64::from(r.relaxation_percent) / 100.0;
            let ilp = if r.ilp_budget_exhausted {
                format!(">{:.2?}", r.ilp_time)
            } else {
                format!("{:.2?}", r.ilp_time)
            };
            out.push_str(&format!(
                "{ratio:<18.2}  {:>10.3?}  {:>12}\n",
                r.heuristic_time, ilp
            ));
        }
        out
    }

    /// Renders the table as CSV (times in milliseconds).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out =
            String::from("relaxation_percent,heuristic_ms,ilp_ms,ilp_budget_exhausted,graphs\n");
        for r in &self.rows {
            out.push_str(&format!(
                "{},{:.3},{:.3},{},{}\n",
                r.relaxation_percent,
                r.heuristic_time.as_secs_f64() * 1e3,
                r.ilp_time.as_secs_f64() * 1e3,
                r.ilp_budget_exhausted,
                r.graphs
            ));
        }
        out
    }
}

/// Runs the Table 2 sweep.
#[must_use]
pub fn run_table2(config: &Table2Config) -> Table2Results {
    let cost = SonicCostModel::default();
    let mut rows = Vec::new();
    for &relax in &config.relaxations {
        // The same population of graphs is used for every relaxation (only
        // the constraint changes), as in the paper.
        let mut generator = TgffGenerator::new(
            TgffConfig::with_ops(config.ops),
            config.sweep.seed.wrapping_add(9_000),
        );
        let mut heuristic_time = Duration::ZERO;
        let mut ilp_time = Duration::ZERO;
        let mut budget_exhausted = false;
        let graphs = config.sweep.graphs_per_point;
        for _ in 0..graphs {
            let graph = generator.generate();
            let lambda = LatencySpec::RelaxPercent(relax).resolve(&graph, &cost);

            let start = Instant::now();
            let _ = DpAllocator::new(&cost, AllocConfig::new(lambda)).allocate(&graph);
            heuristic_time += start.elapsed();

            if ilp_time < config.ilp_row_budget {
                let start = Instant::now();
                let _ = IlpAllocator::new(&cost, lambda)
                    .with_time_limit(config.sweep.ilp_time_limit)
                    .allocate(&graph);
                ilp_time += start.elapsed();
            } else {
                budget_exhausted = true;
            }
        }
        if ilp_time >= config.ilp_row_budget {
            budget_exhausted = true;
        }
        rows.push(Table2Row {
            relaxation_percent: relax,
            heuristic_time,
            ilp_time,
            ilp_budget_exhausted: budget_exhausted,
            graphs,
        });
    }
    Table2Results { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heuristic_time_does_not_scale_with_latency_constraint() {
        let config = Table2Config {
            ops: 6,
            relaxations: vec![0, 15],
            sweep: SweepConfig::quick().with_graphs(4),
            ilp_row_budget: Duration::from_secs(30),
        };
        let results = run_table2(&config);
        assert_eq!(results.rows.len(), 2);
        for r in &results.rows {
            assert_eq!(r.graphs, 4);
            assert!(r.ilp_time >= Duration::ZERO);
        }
        let text = results.render_text();
        assert!(text.contains("Table 2"));
        assert!(text.contains("1.15"));
        let csv = results.to_csv();
        assert_eq!(csv.lines().count(), 1 + results.rows.len());
    }
}

//! Figure 3: area penalty of the two-stage approach \[4\] over the heuristic,
//! as a function of the number of operations and the latency constraint.

use serde::{Deserialize, Serialize};

use mwl_baselines::TwoStageAllocator;
use mwl_core::{AllocConfig, DpAllocator};
use mwl_driver::LatencySpec;
use mwl_model::SonicCostModel;
use mwl_tgff::{TgffConfig, TgffGenerator};

use crate::sweep::SweepConfig;

/// Parameters of the Figure 3 sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig3Config {
    /// Problem sizes |O| to sweep (the paper uses 1..=24).
    pub sizes: Vec<usize>,
    /// Latency relaxations in percent of `λ_min` (the paper uses 0..=30).
    pub relaxations: Vec<u32>,
    /// Shared sweep settings.
    pub sweep: SweepConfig,
}

impl Fig3Config {
    /// The paper's full parameter grid.
    #[must_use]
    pub fn paper() -> Self {
        Fig3Config {
            sizes: (1..=24).collect(),
            relaxations: vec![0, 5, 10, 15, 20, 25, 30],
            sweep: SweepConfig::paper(),
        }
    }

    /// A reduced grid that still shows the trend in both axes.
    #[must_use]
    pub fn quick() -> Self {
        Fig3Config {
            sizes: vec![2, 4, 6, 8, 12, 16, 20, 24],
            relaxations: vec![0, 10, 20, 30],
            sweep: SweepConfig::quick(),
        }
    }
}

/// One cell of the Figure 3 surface.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig3Cell {
    /// Number of operations |O|.
    pub ops: usize,
    /// Latency relaxation in percent of `λ_min`.
    pub relaxation_percent: u32,
    /// Mean area penalty of the two-stage approach over the heuristic, in
    /// percent (positive = the heuristic wins).
    pub mean_area_penalty_percent: f64,
    /// Number of graphs averaged.
    pub graphs: usize,
}

/// The full Figure 3 surface.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig3Results {
    /// One cell per (size, relaxation) pair, in row-major order.
    pub cells: Vec<Fig3Cell>,
}

impl Fig3Results {
    /// The cell for a particular size and relaxation, if it was swept.
    #[must_use]
    pub fn cell(&self, ops: usize, relaxation_percent: u32) -> Option<&Fig3Cell> {
        self.cells
            .iter()
            .find(|c| c.ops == ops && c.relaxation_percent == relaxation_percent)
    }

    /// Renders the table in the orientation of the paper's figure: one row
    /// per problem size, one column per latency relaxation.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut relaxations: Vec<u32> = self.cells.iter().map(|c| c.relaxation_percent).collect();
        relaxations.sort_unstable();
        relaxations.dedup();
        let mut sizes: Vec<usize> = self.cells.iter().map(|c| c.ops).collect();
        sizes.sort_unstable();
        sizes.dedup();

        let mut out =
            String::from("Figure 3: mean area penalty (%) of two-stage [4] over the heuristic\n");
        out.push_str("|O|  ");
        for r in &relaxations {
            out.push_str(&format!("{:>9}", format!("+{r}%")));
        }
        out.push('\n');
        for &s in &sizes {
            out.push_str(&format!("{s:<5}"));
            for &r in &relaxations {
                match self.cell(s, r) {
                    Some(c) => out.push_str(&format!("{:>9.1}", c.mean_area_penalty_percent)),
                    None => out.push_str(&format!("{:>9}", "-")),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Renders the surface as CSV (`ops,relaxation_percent,penalty_percent,graphs`).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("ops,relaxation_percent,mean_area_penalty_percent,graphs\n");
        for c in &self.cells {
            out.push_str(&format!(
                "{},{},{:.4},{}\n",
                c.ops, c.relaxation_percent, c.mean_area_penalty_percent, c.graphs
            ));
        }
        out
    }
}

/// Runs the Figure 3 sweep.
#[must_use]
pub fn run_fig3(config: &Fig3Config) -> Fig3Results {
    let cost = SonicCostModel::default();
    let mut cells = Vec::new();
    for &ops in &config.sizes {
        for &relax in &config.relaxations {
            let mut generator = TgffGenerator::new(
                TgffConfig::with_ops(ops),
                config.sweep.seed ^ (ops as u64) << 8 ^ u64::from(relax),
            );
            let mut total_penalty = 0.0;
            let mut counted = 0usize;
            for _ in 0..config.sweep.graphs_per_point {
                let graph = generator.generate();
                let lambda = LatencySpec::RelaxPercent(relax).resolve(&graph, &cost);
                let heuristic = DpAllocator::new(&cost, AllocConfig::new(lambda)).allocate(&graph);
                let two_stage = TwoStageAllocator::new(&cost, lambda).allocate(&graph);
                if let (Ok(h), Ok(t)) = (heuristic, two_stage) {
                    if h.area() > 0 {
                        let penalty = (t.area() as f64 - h.area() as f64) / h.area() as f64 * 100.0;
                        total_penalty += penalty;
                        counted += 1;
                    }
                }
            }
            cells.push(Fig3Cell {
                ops,
                relaxation_percent: relax,
                mean_area_penalty_percent: if counted > 0 {
                    total_penalty / counted as f64
                } else {
                    0.0
                },
                graphs: counted,
            });
        }
    }
    Fig3Results { cells }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> Fig3Config {
        Fig3Config {
            sizes: vec![4, 8],
            relaxations: vec![0, 30],
            sweep: SweepConfig::quick().with_graphs(6),
        }
    }

    #[test]
    fn penalty_is_nonnegative_and_grows_with_slack() {
        let results = run_fig3(&tiny_config());
        assert_eq!(results.cells.len(), 4);
        for c in &results.cells {
            assert!(c.graphs > 0);
            assert!(
                c.mean_area_penalty_percent >= -1e-9,
                "two-stage should never beat the heuristic on average: {c:?}"
            );
        }
        // With slack the penalty at 8 ops should be at least as large as with
        // no slack (the heuristic exploits slack; the two-stage approach
        // cannot).
        let no_slack = results.cell(8, 0).unwrap().mean_area_penalty_percent;
        let slack = results.cell(8, 30).unwrap().mean_area_penalty_percent;
        assert!(slack >= no_slack - 1e-9);
    }

    #[test]
    fn render_and_csv_contain_all_cells() {
        let results = run_fig3(&tiny_config());
        let text = results.render_text();
        assert!(text.contains("Figure 3"));
        assert!(text.contains("+30%"));
        let csv = results.to_csv();
        assert_eq!(csv.lines().count(), 1 + results.cells.len());
    }

    #[test]
    fn presets_have_expected_shape() {
        let paper = Fig3Config::paper();
        assert_eq!(paper.sizes.len(), 24);
        assert_eq!(paper.relaxations.len(), 7);
        let quick = Fig3Config::quick();
        assert!(quick.sizes.len() < paper.sizes.len());
    }
}

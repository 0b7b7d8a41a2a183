//! The workloads and their seeded inputs.
//!
//! Every input is a pure function of the `--seed` argument: the same seed
//! gives the same graphs, budgets, request kinds and order.  The program
//! under test only ever receives the generated jobs.

use mwl_bench::{scenario_families, scenario_jobs, BatchSweepConfig};
use mwl_core::PortfolioSpec;
use mwl_driver::{BatchJob, LatencySpec};
use mwl_tgff::{GraphShape, TgffConfig, TgffGenerator, WidthProfile};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's scenario mix through `run_batch`, closed loop.
    PaperMix,
    /// 32–48-op graphs through `run_batch`, closed loop.
    LargeGraphs,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::PaperMix, Workload::LargeGraphs];

    /// The workload's stable name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMix => "paper_mix",
            Workload::LargeGraphs => "large_graphs",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes of one run.  `tiny` shrinks every pool for the benchmark's
/// own tests; the committed benchmark always runs the full sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Use the small test sizes.
    pub tiny: bool,
}

impl Scale {
    fn pick(self, full: usize, tiny: usize) -> usize {
        if self.tiny {
            tiny
        } else {
            full
        }
    }

    /// Design batches in the paper_mix pool (7 jobs each): at least a
    /// thousand, so ten requests lie beyond the p99.
    #[must_use]
    pub fn paper_batches(self) -> usize {
        self.pick(1024, 4)
    }

    /// Graphs in the large_graphs pool: at least a thousand, so ten
    /// requests lie beyond the p99.
    #[must_use]
    pub fn large_graphs(self) -> usize {
        self.pick(1000, 8)
    }

    /// Requests of a pool that the traced run's layer sweep covers (design
    /// batches of 7 jobs, or single large graphs).
    #[must_use]
    pub fn layer_batches(self, workload: Workload) -> usize {
        match workload {
            Workload::PaperMix => self.pick(64, 2),
            Workload::LargeGraphs => self.pick(64, 8),
        }
    }

    /// Jobs of the layer set that also race a portfolio.
    #[must_use]
    pub fn portfolio_races(self, workload: Workload) -> usize {
        match workload {
            Workload::PaperMix => self.pick(28, 3),
            Workload::LargeGraphs => self.pick(3, 1),
        }
    }

    /// Requests of the traced run's daemon probe (six seconds at
    /// [`SERVE_RATE`]).
    #[must_use]
    pub fn probe_requests(self) -> usize {
        self.pick(9000, 300)
    }

    /// Requests in a sustained-rate ladder rung at `rate`: 3000, so thirty
    /// lie beyond the p99 and a short burst of portfolio races does not
    /// decide the rung, but never more than a second of arrivals, so a
    /// ladder that has to fall back to low rates stays short.
    #[must_use]
    pub fn rung_requests(self, rate: f64) -> usize {
        if self.tiny {
            200
        } else {
            (rate.ceil() as usize).clamp(300, 3000)
        }
    }
}

/// The daemon probe's fixed arrival rate, requests per second: a quarter to
/// a half of what one solve worker sustains under the p99 limit (3000–6000/s
/// on a 2-vCPU container, depending on its neighbours).
pub const SERVE_RATE: f64 = 1500.0;

/// Variants raced by a portfolio request.
pub const PORTFOLIO_VARIANTS: usize = 8;

/// SplitMix64: the seed expander behind every derived seed and draw.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed` and a per-use `stream` tag.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut s = SplitMix(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        s.next_u64();
        s
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The paper_mix pool: `batches` design batches of 7 jobs, one from each
/// of the seven `batch_sweep` scenario families (tgff, wide, deep, diamond,
/// tight, loose, mixed-widths) at 8–16 ops, so every batch mixes tight and
/// loose λ budgets.
#[must_use]
pub fn paper_pool(seed: u64, batches: usize) -> Vec<Vec<BatchJob>> {
    let jobs = scenario_jobs(&BatchSweepConfig {
        graphs_per_family: batches,
        sizes: vec![8, 10, 12, 14, 16],
        seed: SplitMix::new(seed, 1).next_u64() >> 16,
        worker_counts: vec![1],
    });
    let families = jobs.len() / batches;
    (0..batches)
        .map(|b| {
            (0..families)
                .map(|f| jobs[f * batches + b].clone())
                .collect()
        })
        .collect()
}

/// The (shape, ops) cells of the large_graphs pool, cycled in order: 32–48
/// ops, two to six times the paper's sizes.  Larger cells (56–72 ops, Wide
/// above 32) take 8–400 ms a graph with spreads as wide as their means: a
/// pool of a thousand, the fewest with ten graphs beyond its p99, could
/// then be solved only once or twice a run, and the run's figures hinged on
/// the machine's state and a few graphs of each seed.
pub const LARGE_CELLS: [(GraphShape, usize); 8] = [
    (GraphShape::Layered, 32),
    (GraphShape::Diamond, 32),
    (GraphShape::Wide, 32),
    (GraphShape::Layered, 40),
    (GraphShape::Diamond, 40),
    (GraphShape::Layered, 48),
    (GraphShape::Diamond, 48),
    (GraphShape::Layered, 40),
];

/// λ slack of the large_graphs budgets, in percent of λ_min.
pub const LARGE_SLACK_PERCENT: u32 = 30;

/// The large_graphs pool: `graphs` graphs cycling through [`LARGE_CELLS`]
/// at [`LARGE_SLACK_PERCENT`] λ slack, one graph a request (the design
/// loop re-allocating one edited graph).
#[must_use]
pub fn large_pool(seed: u64, graphs: usize) -> Vec<Vec<BatchJob>> {
    let mut seeds = SplitMix::new(seed, 2);
    LARGE_CELLS
        .iter()
        .cycle()
        .take(graphs)
        .map(|&(shape, ops)| {
            let graph_seed = seeds.next_u64();
            let graph =
                TgffGenerator::new(TgffConfig::with_ops(ops).shape(shape), graph_seed).generate();
            vec![BatchJob::new(
                format!("large/{shape:?}/{ops}/{graph_seed:x}"),
                graph,
                LatencySpec::RelaxPercent(LARGE_SLACK_PERCENT),
            )]
        })
        .collect()
}

/// How a request of the serve mix relates to earlier ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// A graph never sent before.
    Fresh,
    /// An exact repeat of an earlier fresh request (a dedup hit).
    Repeat,
    /// A fresh graph raced as a portfolio of [`PORTFOLIO_VARIANTS`].
    Portfolio,
}

impl RequestKind {
    /// Stable name used in trace-event arguments.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RequestKind::Fresh => "fresh",
            RequestKind::Repeat => "repeat",
            RequestKind::Portfolio => "portfolio",
        }
    }
}

/// One planned request of the serve mix: an index into [`MixGen::jobs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedRequest {
    /// Distinct-job index.
    pub job: usize,
    /// The request's kind.
    pub kind: RequestKind,
}

/// The serve mix, the request stream of the traced run's daemon probe: ~70%
/// fresh small graphs (the seven scenario families at 6–12 ops), ~20% exact
/// repeats and ~10% portfolio races.  Stateful, so successive phases of one
/// run never reuse a graph.
#[derive(Debug)]
pub struct MixGen {
    rng: SplitMix,
    next_graph: u64,
    /// Every distinct job generated so far.
    pub jobs: Vec<BatchJob>,
    /// Distinct jobs sent as fresh plain requests, in order.
    fresh: Vec<usize>,
}

/// Requests between a fresh graph and its earliest repeat, so the original
/// has finished (and entered the dedup cache) before the repeat arrives.
const REPEAT_DISTANCE: usize = 16;

impl MixGen {
    /// A generator for the given seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        MixGen {
            rng: SplitMix::new(seed, 3),
            next_graph: SplitMix::new(seed, 4).next_u64() >> 20,
            jobs: Vec::new(),
            fresh: Vec::new(),
        }
    }

    fn new_job(&mut self, portfolio: bool) -> usize {
        let families = scenario_families();
        let n = self.next_graph;
        self.next_graph += 1;
        let family = families[(n % families.len() as u64) as usize];
        let ops = [6, 8, 10, 12][((n / families.len() as u64) % 4) as usize];
        let mut config = TgffConfig::with_ops(ops).shape(family.shape);
        if family.mixed_widths {
            config = config.width_profile(WidthProfile::Mixed { high_fraction: 0.5 });
        }
        let graph = TgffGenerator::new(config, n).generate();
        let mut job = BatchJob::new(format!("{}/{ops}/{n}", family.name), graph, family.latency);
        if portfolio {
            job = job.with_portfolio(PortfolioSpec::new(n, PORTFOLIO_VARIANTS));
        }
        self.jobs.push(job);
        self.jobs.len() - 1
    }

    /// The next `count` requests of the stream.
    pub fn take(&mut self, count: usize) -> Vec<PlannedRequest> {
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let draw = self.rng.unit();
            let request = if draw < 0.1 {
                PlannedRequest {
                    job: self.new_job(true),
                    kind: RequestKind::Portfolio,
                }
            } else if draw < 0.3 && self.fresh.len() > REPEAT_DISTANCE {
                let pick = self.rng.below(self.fresh.len() - REPEAT_DISTANCE);
                PlannedRequest {
                    job: self.fresh[pick],
                    kind: RequestKind::Repeat,
                }
            } else {
                let job = self.new_job(false);
                self.fresh.push(job);
                PlannedRequest {
                    job,
                    kind: RequestKind::Fresh,
                }
            };
            out.push(request);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_are_seeded() {
        let a = paper_pool(7, 2);
        let b = paper_pool(7, 2);
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].len(), 7);
        for (x, y) in a.iter().flatten().zip(b.iter().flatten()) {
            assert_eq!(x.graph, y.graph);
        }
        assert_ne!(paper_pool(8, 1)[0][0].graph, a[0][0].graph);
        let large = large_pool(7, 8);
        assert_eq!(large.len(), 8);
        assert!(large.iter().flatten().all(|j| j.graph.len() >= 32));
    }

    #[test]
    fn mix_has_every_kind_and_repeats_point_back() {
        let mut mix = MixGen::new(5);
        let plan = mix.take(2000);
        let count = |k| plan.iter().filter(|r| r.kind == k).count();
        assert!(count(RequestKind::Fresh) > 1200);
        assert!(count(RequestKind::Repeat) > 250);
        assert!(count(RequestKind::Portfolio) > 120);
        for (i, r) in plan.iter().enumerate() {
            if r.kind == RequestKind::Repeat {
                let first = plan.iter().position(|p| p.job == r.job).unwrap();
                assert!(first + REPEAT_DISTANCE <= i);
            }
        }
    }
}

//! Seeded random sequencing-graph generation in the style of TGFF.
//!
//! The DATE 2001 evaluation generates "200 random sequencing graphs for each
//! problem size |O| between 1 and 24 using an adaptation of the TGFF
//! algorithm" (Dick, Rhodes and Wolf, *TGFF: Task Graphs For Free*).  This
//! crate reproduces that workload generator: layered random DAGs with bounded
//! fan-in/fan-out, a configurable multiplier/adder mix, and random operand
//! wordlengths, all driven by a seeded PRNG so every experiment in the
//! workspace is reproducible.
//!
//! Beyond the paper's layered graphs, [`GraphShape`] adds wide, deep and
//! diamond macro-structures and [`WidthProfile`] adds bimodal "mixed"
//! wordlength spreads — the scenario families exercised by the batch driver
//! (`mwl_driver`) and the `mwl_bench` gates.
//!
//! *Pipeline position:* workload generation for `mwl_bench`, the batch
//! scenario families and the property tests.  See `docs/ARCHITECTURE.md`
//! for the full map.
//!
//! # Example
//!
//! ```
//! use mwl_tgff::{TgffConfig, TgffGenerator};
//!
//! let config = TgffConfig::with_ops(9);
//! let mut generator = TgffGenerator::new(config, 42);
//! let graph = generator.generate();
//! assert_eq!(graph.len(), 9);
//! // The same seed always yields the same graph.
//! let again = TgffGenerator::new(TgffConfig::with_ops(9), 42).generate();
//! assert_eq!(graph, again);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use mwl_model::{OpShape, SequencingGraph, SequencingGraphBuilder};

/// Maximum number of direct predecessors per operation.
const MAX_IN_DEGREE: usize = 3;
/// Maximum number of direct successors per operation.
const MAX_OUT_DEGREE: usize = 3;
/// Nominal operations per layer of a `Layered` graph: layer sizes are drawn
/// uniformly from `1..=2·round(OPS_PER_LAYER)`, which sets how deep versus
/// wide the generated graphs are.
const OPS_PER_LAYER: f64 = 2.5;
/// Probability that an operation gains an extra edge from an earlier-layer
/// operation (beyond the single edge that keeps the graph weakly connected).
const EDGE_PROBABILITY: f64 = 0.35;

/// Macro-structure of the generated DAG: how the operations are partitioned
/// into layers before the random edges are wired.
///
/// The default [`Layered`](GraphShape::Layered) shape reproduces the paper's
/// TGFF-style workload; the other shapes are scenario families for the batch
/// driver that stress the allocator in different ways (wide graphs maximise
/// parallelism pressure, deep graphs serialise everything, diamonds fan out
/// and back in).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum GraphShape {
    /// Random layer sizes of one to six operations (the original TGFF-style
    /// behaviour).
    #[default]
    Layered,
    /// At most three near-equal layers: shallow graphs with many independent
    /// operations per step.
    Wide,
    /// One operation per layer: a dependency chain with optional skip edges.
    Deep,
    /// Layer sizes ramp up from a single source towards the middle and back
    /// down to a single sink.
    Diamond,
}

/// How operand wordlengths are drawn from [`TgffConfig::width_range`].
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum WidthProfile {
    /// Every width in the range is equally likely (the original behaviour).
    #[default]
    Uniform,
    /// A bimodal "mixed spread": widths cluster in the bottom and top
    /// quarters of the range, with the given fraction of draws coming from
    /// the top cluster.  This models graphs mixing a few wide accumulation
    /// paths with many narrow ones, where wordlength-aware sharing decisions
    /// matter most.
    Mixed {
        /// Probability that a draw comes from the top cluster (clamped to
        /// `0.0..=1.0`).
        high_fraction: f64,
    },
}

/// Configuration of the random sequencing-graph generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TgffConfig {
    /// Number of operations `|O|` in each generated graph.
    pub ops: usize,
    /// Probability that an operation is a multiplication (the remainder are
    /// additions/subtractions in equal shares).
    pub mul_fraction: f64,
    /// Inclusive range of operand wordlengths in bits.
    pub width_range: (u32, u32),
    /// Macro-structure of the generated DAG (layered, wide, deep, diamond).
    pub shape: GraphShape,
    /// Distribution of operand wordlengths within [`width_range`](Self::width_range).
    pub width_profile: WidthProfile,
}

impl TgffConfig {
    /// Default generator parameters for a graph of the given size, matching
    /// the scale of the paper's evaluation (widths 4..=24 bits, roughly half
    /// of the operations multiplications).
    #[must_use]
    pub fn with_ops(ops: usize) -> Self {
        TgffConfig {
            ops,
            mul_fraction: 0.5,
            width_range: (4, 24),
            shape: GraphShape::Layered,
            width_profile: WidthProfile::Uniform,
        }
    }

    /// Sets the macro-structure of the generated DAG.
    #[must_use]
    pub fn shape(mut self, shape: GraphShape) -> Self {
        self.shape = shape;
        self
    }

    /// Sets the wordlength distribution, clamping any fraction parameter to
    /// `0.0..=1.0`.
    #[must_use]
    pub fn width_profile(mut self, profile: WidthProfile) -> Self {
        self.width_profile = match profile {
            WidthProfile::Uniform => WidthProfile::Uniform,
            WidthProfile::Mixed { high_fraction } => WidthProfile::Mixed {
                high_fraction: high_fraction.clamp(0.0, 1.0),
            },
        };
        self
    }

    /// Sets the operand wordlength range (inclusive).
    #[must_use]
    pub fn width_range(mut self, min: u32, max: u32) -> Self {
        self.width_range = (min.min(max), min.max(max));
        self
    }

    /// Sets the fraction of multiplication operations.
    #[must_use]
    pub fn mul_fraction(mut self, fraction: f64) -> Self {
        self.mul_fraction = fraction.clamp(0.0, 1.0);
        self
    }
}

impl Default for TgffConfig {
    fn default() -> Self {
        TgffConfig::with_ops(9)
    }
}

/// Seeded generator producing a stream of random [`SequencingGraph`]s.
#[derive(Debug, Clone)]
pub struct TgffGenerator {
    config: TgffConfig,
    rng: StdRng,
}

impl TgffGenerator {
    /// Creates a generator with the given configuration and seed.
    #[must_use]
    pub fn new(config: TgffConfig, seed: u64) -> Self {
        TgffGenerator {
            config,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Generates the next random sequencing graph.
    ///
    /// # Panics
    ///
    /// Panics if the configuration requests zero operations; the sequencing
    /// graph model requires at least one operation.
    pub fn generate(&mut self) -> SequencingGraph {
        assert!(self.config.ops > 0, "TgffConfig::ops must be at least 1");
        let n = self.config.ops;

        // Partition the n operations into layers according to the shape.
        let mut layers: Vec<Vec<usize>> = Vec::new();
        {
            let sizes = self.layer_sizes(n);
            let mut next = 0usize;
            for take in sizes {
                layers.push((next..next + take).collect());
                next += take;
            }
            debug_assert_eq!(next, n);
        }

        let mut builder = SequencingGraphBuilder::new();
        let mut ids = Vec::with_capacity(n);
        for _ in 0..n {
            let shape = self.random_shape();
            ids.push(builder.add_operation(shape));
        }

        // Track degrees to respect the fan-in / fan-out bounds.
        let mut out_degree = vec![0usize; n];
        let mut in_degree = vec![0usize; n];

        for li in 1..layers.len() {
            let (prev_layers, this_layer) = layers.split_at(li);
            let prev = prev_layers.last().expect("li >= 1");
            for &v in &this_layer[0] {
                // Ensure weak connectivity: at least one predecessor from the
                // previous layer when possible.
                let candidates: Vec<usize> = prev
                    .iter()
                    .copied()
                    .filter(|&u| out_degree[u] < MAX_OUT_DEGREE)
                    .collect();
                if let Some(&u) = pick(&mut self.rng, &candidates) {
                    if builder.add_dependency(ids[u], ids[v]).is_ok() {
                        out_degree[u] += 1;
                        in_degree[v] += 1;
                    }
                }
                // Extra edges from any earlier layer with probability
                // `EDGE_PROBABILITY`.
                for earlier in prev_layers {
                    for &u in earlier {
                        if in_degree[v] >= MAX_IN_DEGREE {
                            break;
                        }
                        if out_degree[u] >= MAX_OUT_DEGREE {
                            continue;
                        }
                        if self.rng.gen_bool(EDGE_PROBABILITY)
                            && builder.add_dependency(ids[u], ids[v]).is_ok()
                        {
                            out_degree[u] += 1;
                            in_degree[v] += 1;
                        }
                    }
                }
            }
        }

        builder
            .build()
            .expect("generated graph is non-empty and acyclic by construction")
    }

    /// Layer sizes for the configured [`GraphShape`], summing to `n`.
    ///
    /// The `Layered` arm draws from the PRNG exactly as the original
    /// generator did, so existing seeds keep producing identical graphs.
    fn layer_sizes(&mut self, n: usize) -> Vec<usize> {
        match self.config.shape {
            GraphShape::Layered => {
                let mut sizes = Vec::new();
                let mut next = 0usize;
                while next < n {
                    let remaining = n - next;
                    let span = OPS_PER_LAYER.round() as usize;
                    let lo = 1usize;
                    let hi = (2 * span).min(remaining).max(1);
                    let take = if lo >= hi {
                        hi
                    } else {
                        self.rng.gen_range(lo..=hi)
                    };
                    sizes.push(take);
                    next += take;
                }
                sizes
            }
            GraphShape::Wide => {
                let layers = n.min(3);
                let base = n / layers;
                let extra = n % layers;
                (0..layers).map(|i| base + usize::from(i < extra)).collect()
            }
            GraphShape::Deep => vec![1; n],
            GraphShape::Diamond => {
                // Largest full diamond 1..=k..1 uses k^2 operations; pad the
                // middle with extra width-k layers for the remainder.
                let k = (1..).take_while(|k| k * k <= n).last().unwrap_or(1);
                let mut sizes: Vec<usize> = (1..=k).collect();
                let mut leftover = n - k * k;
                while leftover >= k {
                    sizes.push(k);
                    leftover -= k;
                }
                if leftover > 0 {
                    sizes.push(leftover);
                }
                sizes.extend((1..k).rev());
                sizes
            }
        }
    }

    fn random_width(&mut self) -> u32 {
        let (lo, hi) = self.config.width_range;
        if lo >= hi {
            return lo;
        }
        match self.config.width_profile {
            WidthProfile::Uniform => self.rng.gen_range(lo..=hi),
            WidthProfile::Mixed { high_fraction } => {
                let quarter = (hi - lo) / 4;
                if self.rng.gen_bool(high_fraction.clamp(0.0, 1.0)) {
                    self.rng.gen_range(hi - quarter..=hi)
                } else {
                    self.rng.gen_range(lo..=lo + quarter)
                }
            }
        }
    }

    fn random_shape(&mut self) -> OpShape {
        if self.rng.gen_bool(self.config.mul_fraction) {
            let a = self.random_width();
            let b = self.random_width();
            OpShape::multiplier(a, b)
        } else {
            let w = self.random_width();
            if self.rng.gen_bool(0.5) {
                OpShape::adder(w)
            } else {
                OpShape::subtractor(w)
            }
        }
    }
}

fn pick<'a, T>(rng: &mut StdRng, slice: &'a [T]) -> Option<&'a T> {
    if slice.is_empty() {
        None
    } else {
        let i = rng.gen_range(0..slice.len());
        Some(&slice[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwl_model::OpKind;

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = TgffGenerator::new(TgffConfig::with_ops(15), 7).generate();
        let b = TgffGenerator::new(TgffConfig::with_ops(15), 7).generate();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_usually_differ() {
        let a = TgffGenerator::new(TgffConfig::with_ops(15), 1).generate();
        let b = TgffGenerator::new(TgffConfig::with_ops(15), 2).generate();
        assert_ne!(a, b);
    }

    #[test]
    fn respects_requested_size() {
        for n in 1..=24 {
            let g = TgffGenerator::new(TgffConfig::with_ops(n), 13).generate();
            assert_eq!(g.len(), n);
        }
    }

    #[test]
    fn respects_degree_bounds() {
        let mut generator = TgffGenerator::new(TgffConfig::with_ops(40), 99);
        for _ in 0..10 {
            let g = generator.generate();
            for op in g.op_ids() {
                assert!(g.predecessors(op).len() <= MAX_IN_DEGREE);
                assert!(g.successors(op).len() <= MAX_OUT_DEGREE);
            }
        }
    }

    #[test]
    fn widths_within_configured_range() {
        let config = TgffConfig::with_ops(30).width_range(6, 10);
        let g = TgffGenerator::new(config, 5).generate();
        for op in g.operations() {
            let (a, b) = op.shape().widths();
            assert!((6..=10).contains(&a));
            assert!((6..=10).contains(&b));
        }
    }

    #[test]
    fn mul_fraction_extremes() {
        let all_mul = TgffGenerator::new(TgffConfig::with_ops(20).mul_fraction(1.0), 3).generate();
        assert!(all_mul.operations().iter().all(|o| o.kind() == OpKind::Mul));
        let no_mul = TgffGenerator::new(TgffConfig::with_ops(20).mul_fraction(0.0), 3).generate();
        assert!(no_mul.operations().iter().all(|o| o.kind().is_additive()));
    }

    #[test]
    fn generated_graphs_are_connected_enough() {
        // Every non-first-layer op has at least one predecessor unless degree
        // bounds prevented it; sanity-check that most ops participate in
        // dependencies for reasonably sized graphs.
        let g = TgffGenerator::new(TgffConfig::with_ops(20), 11).generate();
        assert!(!g.edges().is_empty());
        assert!(g.depth() >= 2);
    }

    #[test]
    fn config_builder_methods_clamp() {
        let c = TgffConfig::with_ops(5).mul_fraction(7.0).width_range(9, 3);
        assert_eq!(c.mul_fraction, 1.0);
        assert_eq!(c.width_range, (3, 9));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_ops_panics() {
        let _ = TgffGenerator::new(TgffConfig::with_ops(0), 0).generate();
    }

    #[test]
    fn layered_shape_is_backwards_compatible() {
        // Adding shapes must not perturb the PRNG stream of the default
        // configuration: seeds used across the workspace keep their graphs.
        let old_style = TgffGenerator::new(TgffConfig::with_ops(15), 7).generate();
        let explicit =
            TgffGenerator::new(TgffConfig::with_ops(15).shape(GraphShape::Layered), 7).generate();
        assert_eq!(old_style, explicit);
        assert_eq!(TgffConfig::with_ops(3).shape, GraphShape::Layered);
        assert_eq!(TgffConfig::with_ops(3).width_profile, WidthProfile::Uniform);
    }

    #[test]
    fn deep_shape_is_a_chain() {
        for n in [1usize, 2, 5, 12] {
            let g =
                TgffGenerator::new(TgffConfig::with_ops(n).shape(GraphShape::Deep), 3).generate();
            assert_eq!(g.len(), n);
            assert_eq!(g.depth(), n, "deep graphs have one op per layer");
        }
    }

    #[test]
    fn wide_shape_is_shallow() {
        for n in [1usize, 4, 9, 24] {
            let g =
                TgffGenerator::new(TgffConfig::with_ops(n).shape(GraphShape::Wide), 3).generate();
            assert_eq!(g.len(), n);
            assert!(g.depth() <= 3, "wide graphs have at most three layers");
        }
    }

    #[test]
    fn diamond_shape_fans_out_and_back_in() {
        let config = TgffConfig::with_ops(16).shape(GraphShape::Diamond);
        let g = TgffGenerator::new(config, 9).generate();
        assert_eq!(g.len(), 16);
        // 16 = 4^2: layers 1,2,3,4,3,2,1.
        assert_eq!(g.depth(), 7);
        // The single entry op is a source and the single exit op a sink.
        assert!(g.op_ids().any(|op| g.predecessors(op).is_empty()));
        assert!(!g.sinks().is_empty());
    }

    #[test]
    fn diamond_layer_sizes_sum_for_all_n() {
        for n in 1..=40 {
            let g = TgffGenerator::new(TgffConfig::with_ops(n).shape(GraphShape::Diamond), 1)
                .generate();
            assert_eq!(g.len(), n);
        }
    }

    #[test]
    fn mixed_width_profile_avoids_the_middle() {
        let config = TgffConfig::with_ops(60)
            .width_range(4, 24)
            .width_profile(WidthProfile::Mixed { high_fraction: 0.5 });
        let g = TgffGenerator::new(config, 17).generate();
        let mut low = 0usize;
        let mut high = 0usize;
        for op in g.operations() {
            let (a, b) = op.shape().widths();
            for w in [a, b] {
                assert!(
                    (4..=9).contains(&w) || (19..=24).contains(&w),
                    "width {w} should come from an extreme cluster"
                );
                if w <= 9 {
                    low += 1;
                } else {
                    high += 1;
                }
            }
        }
        assert!(low > 0 && high > 0, "both clusters should be drawn from");
    }

    #[test]
    fn width_profile_fraction_is_clamped() {
        let c = TgffConfig::with_ops(5).width_profile(WidthProfile::Mixed { high_fraction: 3.0 });
        assert_eq!(c.width_profile, WidthProfile::Mixed { high_fraction: 1.0 });
        let all_high = TgffGenerator::new(
            TgffConfig::with_ops(20)
                .width_range(4, 24)
                .width_profile(WidthProfile::Mixed { high_fraction: 1.0 }),
            5,
        )
        .generate();
        for op in all_high.operations() {
            let (a, b) = op.shape().widths();
            assert!(a >= 19 && b >= 19);
        }
    }

    #[test]
    fn shapes_are_deterministic_per_seed() {
        for shape in [
            GraphShape::Layered,
            GraphShape::Wide,
            GraphShape::Deep,
            GraphShape::Diamond,
        ] {
            let a = TgffGenerator::new(TgffConfig::with_ops(14).shape(shape), 21).generate();
            let b = TgffGenerator::new(TgffConfig::with_ops(14).shape(shape), 21).generate();
            assert_eq!(a, b);
        }
    }
}

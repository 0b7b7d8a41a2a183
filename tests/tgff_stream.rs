//! Pins the exact graph stream of the TGFF-style generator.
//!
//! Every seeded experiment in the workspace, and the benchmark's
//! `total_area`, depends on the generator producing the same graphs for the
//! same seed.  This test folds the content fingerprints of the first graphs
//! of each generator into one value per `GraphShape` × `WidthProfile` cell,
//! so any change to the PRNG draws, the layer partition, the degree bounds or
//! the edge probability shows up as a changed constant.

use mwl::alloc::{graph_fingerprint, StableHasher};
use mwl::model::SequencingGraph;
use mwl::tgff::{GraphShape, TgffConfig, TgffGenerator, WidthProfile};

const SIZES: [usize; 6] = [1, 5, 9, 16, 32, 48];
const SEEDS: [u64; 3] = [0, 7, 2024];
const GRAPHS_PER_SEED: usize = 3;
const SHAPES: [GraphShape; 4] = [
    GraphShape::Layered,
    GraphShape::Wide,
    GraphShape::Deep,
    GraphShape::Diamond,
];

/// Every graph of the pinned stream for one cell, in generation order.
fn stream(shape: GraphShape, profile: WidthProfile) -> Vec<SequencingGraph> {
    let mut graphs = Vec::new();
    for ops in SIZES {
        for seed in SEEDS {
            let config = TgffConfig::with_ops(ops)
                .shape(shape)
                .width_profile(profile);
            let mut generator = TgffGenerator::new(config, seed);
            graphs.extend((0..GRAPHS_PER_SEED).map(|_| generator.generate()));
        }
    }
    graphs
}

fn stream_fingerprint(shape: GraphShape, profile: WidthProfile) -> u64 {
    let mut h = StableHasher::new();
    for graph in stream(shape, profile) {
        h.write_u64(graph_fingerprint(&graph));
    }
    h.finish()
}

#[test]
fn generated_graphs_are_pinned_per_shape_and_width_profile() {
    let uniform = WidthProfile::Uniform;
    let mixed = WidthProfile::Mixed { high_fraction: 0.5 };
    let pinned: [(GraphShape, WidthProfile, u64); 8] = [
        (GraphShape::Layered, uniform, 0x8823248bc71dbe50),
        (GraphShape::Layered, mixed, 0x0e9bf156ebfe4d94),
        (GraphShape::Wide, uniform, 0x96fc8ef63b9dd873),
        (GraphShape::Wide, mixed, 0x0f28b4421116540b),
        (GraphShape::Deep, uniform, 0xe6e76d771331ca0e),
        (GraphShape::Deep, mixed, 0xd5a32b705005e010),
        (GraphShape::Diamond, uniform, 0xccc069ca38ff2f68),
        (GraphShape::Diamond, mixed, 0x38c5190a847c3302),
    ];
    let actual: Vec<_> = pinned
        .iter()
        .map(|&(shape, profile, _)| (shape, profile, stream_fingerprint(shape, profile)))
        .collect();
    assert_eq!(actual, pinned, "the TGFF graph stream changed");
}

#[test]
fn generated_graphs_keep_fan_in_and_fan_out_within_three() {
    for shape in SHAPES {
        for profile in [
            WidthProfile::Uniform,
            WidthProfile::Mixed { high_fraction: 0.5 },
        ] {
            for graph in stream(shape, profile) {
                for op in graph.op_ids() {
                    assert!(
                        graph.predecessors(op).len() <= 3,
                        "{shape:?}: fan-in of {op:?}"
                    );
                    assert!(
                        graph.successors(op).len() <= 3,
                        "{shape:?}: fan-out of {op:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn generated_widths_follow_the_width_profile() {
    // The default range is 4..=24 bits; the mixed profile's clusters are its
    // bottom and top quarters, 4..=9 and 19..=24.
    let cells = [
        (WidthProfile::Uniform, 4..=24, 4..=24),
        (WidthProfile::Mixed { high_fraction: 0.5 }, 4..=9, 19..=24),
        (WidthProfile::Mixed { high_fraction: 0.0 }, 4..=9, 4..=9),
        (WidthProfile::Mixed { high_fraction: 1.0 }, 19..=24, 19..=24),
    ];
    for shape in SHAPES {
        for (profile, low, high) in cells.clone() {
            for graph in stream(shape, profile) {
                for op in graph.operations() {
                    let (a, b) = op.shape().widths();
                    for w in [a, b] {
                        assert!(
                            low.contains(&w) || high.contains(&w),
                            "{shape:?} {profile:?}: width {w}"
                        );
                    }
                }
            }
        }
    }
}

//! Pins the `BindSelect` candidate set of the compatibility graph.
//!
//! [`WordlengthCompatibilityGraph::prune_bind_candidates`] drops, from the
//! types `BindSelect` scans, every type with an empty column or a cheaper,
//! no slower type whose column is a superset of its own.  On random graphs
//! — narrow and mixed widths included, so equal areas and equal columns are
//! common — latencies that do and do not grow with area, and random
//! refinement histories, every dropped type must keep a
//! dominator in the set under the current `H`, and `BindSelect` over the set
//! must select exactly what it selects over every type.  The comparator is
//! exact, so an area of 2²⁴ or more prunes the same way.

use proptest::prelude::*;

use mwl_core::{bind_select, BindSelectOptions};
use mwl_model::{Area, CostModel, Cycles, OpId, ResourceType, SequencingGraph, SonicCostModel};
use mwl_sched::{OpLatencies, Schedule};
use mwl_tgff::{GraphShape, TgffConfig, TgffGenerator, WidthProfile};
use mwl_wcg::WordlengthCompatibilityGraph;

/// Deterministic bit source for the generated inputs.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn graph(shape: GraphShape, widths: u8, ops: usize, seed: u64) -> SequencingGraph {
    let config = TgffConfig::with_ops(ops).shape(shape);
    let config = match widths {
        0 => config,
        1 => config.width_profile(WidthProfile::Mixed { high_fraction: 0.5 }),
        _ => config.width_range(8, 9),
    };
    TgffGenerator::new(config, seed).generate()
}

/// `O(r)` as a sorted operation list.
fn column(wcg: &WordlengthCompatibilityGraph, r: usize) -> Vec<OpId> {
    wcg.ops_for(r)
}

/// Whether `q` dominates `r` under the current `H`.
fn dominates(wcg: &WordlengthCompatibilityGraph, q: usize, r: usize) -> bool {
    let area = |t: usize| wcg.resource_area(t).max(1);
    let col_q = column(wcg, q);
    wcg.resource_latency(q) <= wcg.resource_latency(r)
        && (area(q), q) < (area(r), r)
        && column(wcg, r).iter().all(|o| col_q.contains(o))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn dropped_types_keep_a_dominator_and_binding_is_unchanged(
        shape in prop_oneof![
            Just(GraphShape::Layered),
            Just(GraphShape::Wide),
            Just(GraphShape::Deep),
            Just(GraphShape::Diamond),
        ],
        widths in 0u8..3,
        ops in 1usize..=40,
        seed in 0u64..5000,
        scrambled in any::<bool>(),
        knobs in any::<u64>(),
    ) {
        let graph = graph(shape, widths, ops, seed);
        let cost: &dyn CostModel = if scrambled { &ScrambledLatency } else { &SonicCostModel::default() };
        let mut full = WordlengthCompatibilityGraph::new(&graph, cost);
        prop_assert_eq!(full.bind_candidates().len(), full.resources().len());
        let mut pruned = full.clone();
        pruned.snapshot_pristine();
        pruned.prune_bind_candidates();
        // The set is the definition's: the types with a non-empty column
        // that no type at all dominates.
        let undominated: Vec<usize> = (0..full.resources().len())
            .filter(|&r| {
                !column(&full, r).is_empty()
                    && !(0..full.resources().len()).any(|q| dominates(&full, q, r))
            })
            .collect();
        prop_assert_eq!(pruned.bind_candidates(), undominated.as_slice());
        let mut state = knobs;
        let mut draw = |n: u64| splitmix(&mut state) % n;

        // A refinement history over refinable operations.
        for _ in 0..draw(2 * ops as u64 + 1) {
            let refinable: Vec<OpId> = graph.op_ids().filter(|&o| full.refinable(o)).collect();
            if refinable.is_empty() {
                break;
            }
            let op = refinable[draw(refinable.len() as u64) as usize];
            prop_assert_eq!(full.refine_op(op), pruned.refine_op(op));
        }

        let kept = pruned.bind_candidates().to_vec();
        prop_assert!(kept.windows(2).all(|w| w[0] < w[1]), "ascending: {:?}", kept);
        for r in (0..pruned.resources().len()).filter(|r| !kept.contains(r)) {
            prop_assert!(
                column(&pruned, r).is_empty() || kept.iter().any(|&q| dominates(&pruned, q, r)),
                "type {} has no dominator in {:?}", r, kept
            );
        }

        // One schedule, valid under the upper bounds, attached to both.
        let upper = full.upper_bound_latencies();
        let mut start: Vec<Cycles> = vec![0; graph.len()];
        for o in graph.topological_order() {
            let ready = graph
                .predecessors(o)
                .iter()
                .map(|&p| start[p.index()] + upper.get(p))
                .max()
                .unwrap_or(0);
            start[o.index()] = ready + if draw(3) == 0 { draw(4) as Cycles } else { 0 };
        }
        let schedule = Schedule::from_vec(start);
        full.attach_schedule(&schedule, &upper);
        pruned.attach_schedule(&schedule, &upper);
        for grow_cliques in [true, false] {
            let options = BindSelectOptions { grow_cliques };
            prop_assert_eq!(bind_select(&pruned, options), bind_select(&full, options));
        }
    }
}

/// Sonic areas with latencies unrelated to them, so that a cheaper type
/// with a superset column can be the slower one.
#[derive(Debug)]
struct ScrambledLatency;

impl CostModel for ScrambledLatency {
    fn area(&self, resource: &ResourceType) -> Area {
        SonicCostModel::default().area(resource)
    }

    fn latency(&self, resource: &ResourceType) -> Cycles {
        let (a, b) = resource.widths();
        1 + (a * 31 + b * 17) % 5
    }
}

/// Sonic costs, except that one resource type costs `2²⁴` area units.
#[derive(Debug)]
struct OneHugeArea {
    huge: ResourceType,
}

impl CostModel for OneHugeArea {
    fn area(&self, resource: &ResourceType) -> Area {
        if *resource == self.huge {
            1 << 24
        } else {
            SonicCostModel::default().area(resource)
        }
    }

    fn latency(&self, resource: &ResourceType) -> Cycles {
        SonicCostModel::default().latency(resource)
    }
}

#[test]
fn an_area_beyond_2_24_prunes_and_binds_as_every_type_does() {
    let graph = graph(GraphShape::Layered, 1, 32, 7);
    let sonic = WordlengthCompatibilityGraph::new(&graph, &SonicCostModel::default());
    let all = sonic.resources().len();
    for huge in 0..all {
        let cost = OneHugeArea {
            huge: sonic.resources()[huge],
        };
        let mut full = WordlengthCompatibilityGraph::new(&graph, &cost);
        let mut pruned = full.clone();
        pruned.snapshot_pristine();
        pruned.prune_bind_candidates();
        assert!(
            pruned.bind_candidates().len() < all,
            "type {huge}: no pruning"
        );
        let upper: OpLatencies = full.upper_bound_latencies();
        let schedule = mwl_sched::asap(&graph, &upper);
        full.attach_schedule(&schedule, &upper);
        pruned.attach_schedule(&schedule, &upper);
        for grow_cliques in [true, false] {
            let options = BindSelectOptions { grow_cliques };
            assert_eq!(bind_select(&pruned, options), bind_select(&full, options));
        }
    }
}

//! Property-based tests of the wordlength compatibility graph.

use proptest::prelude::*;

use mwl_model::{CostModel, OpId, SonicCostModel};
use mwl_sched::asap;
use mwl_tgff::{TgffConfig, TgffGenerator};
use mwl_wcg::{ChainScratch, WordlengthCompatibilityGraph};

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Initial construction: every operation has at least one compatible
    /// resource, the upper bound is the max latency over its candidates, and
    /// every H edge points to a resource that covers the operation.
    #[test]
    fn construction_invariants(ops in 1usize..16, seed in any::<u64>()) {
        let graph = TgffGenerator::new(TgffConfig::with_ops(ops), seed).generate();
        let cost = SonicCostModel::default();
        let wcg = WordlengthCompatibilityGraph::new(&graph, &cost);
        prop_assert_eq!(wcg.num_ops(), graph.len());
        for op in graph.op_ids() {
            let candidates = wcg.resources_for(op);
            prop_assert!(!candidates.is_empty());
            let shape = graph.operation(op).shape();
            let mut max_latency = 0;
            for &r in &candidates {
                prop_assert!(wcg.resource(r).covers(shape));
                prop_assert_eq!(wcg.resource_latency(r), cost.latency(wcg.resource(r)));
                prop_assert_eq!(wcg.resource_area(r), cost.area(wcg.resource(r)));
                max_latency = max_latency.max(wcg.resource_latency(r));
            }
            prop_assert_eq!(wcg.upper_bound_latency(op), max_latency);
            // Native latency lower-bounds the upper bound.
            prop_assert!(max_latency >= cost.native_latency(shape));
        }
    }

    /// Refinement never strands an operation, never increases its upper
    /// bound, and terminates.
    #[test]
    fn refinement_monotone_and_terminating(ops in 1usize..14, seed in any::<u64>()) {
        let graph = TgffGenerator::new(TgffConfig::with_ops(ops), seed).generate();
        let cost = SonicCostModel::default();
        let mut wcg = WordlengthCompatibilityGraph::new(&graph, &cost);
        for op in graph.op_ids() {
            let mut previous = wcg.upper_bound_latency(op);
            let mut rounds = 0;
            while wcg.refinable(op) {
                prop_assert!(wcg.refine_op(op) > 0);
                let now = wcg.upper_bound_latency(op);
                prop_assert!(now < previous);
                previous = now;
                rounds += 1;
                prop_assert!(rounds <= wcg.resources().len());
            }
            prop_assert!(!wcg.resources_for(op).is_empty());
            prop_assert_eq!(wcg.refine_op(op), 0);
            // Fully refined bound equals the native latency.
            prop_assert_eq!(
                wcg.upper_bound_latency(op),
                cost.native_latency(graph.operation(op).shape())
            );
        }
    }

    /// With an attached schedule, compatibility is a strict partial order
    /// (irreflexive, antisymmetric, transitive) and max chains are really
    /// chains of compatible operations restricted to O(r).
    #[test]
    fn compatibility_is_a_partial_order(ops in 1usize..14, seed in any::<u64>()) {
        let graph = TgffGenerator::new(TgffConfig::with_ops(ops), seed).generate();
        let cost = SonicCostModel::default();
        let mut wcg = WordlengthCompatibilityGraph::new(&graph, &cost);
        let upper = wcg.upper_bound_latencies();
        let schedule = asap(&graph, &upper);
        wcg.attach_schedule(&schedule, &upper);

        let ids: Vec<OpId> = graph.op_ids().collect();
        for &a in &ids {
            prop_assert!(!wcg.compatible(a, a));
            for &b in &ids {
                if a != b && wcg.compatible(a, b) {
                    prop_assert!(!wcg.compatible(b, a));
                    for &c in &ids {
                        if wcg.compatible(b, c) {
                            prop_assert!(wcg.compatible(a, c));
                        }
                    }
                }
            }
        }

        let covered = vec![false; graph.len()];
        for r in 0..wcg.resources().len() {
            let mut chain = Vec::new();
            wcg.max_chain_into(r, &covered, &mut ChainScratch::default(), &mut chain);
            prop_assert!(wcg.is_chain(&chain) || chain.is_empty());
            for &op in &chain {
                prop_assert!(wcg.has_edge(op, r));
            }
            for w in chain.windows(2) {
                prop_assert!(wcg.compatible(w[0], w[1]));
            }
            // No duplicate members.
            let mut sorted = chain.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), chain.len());
        }
    }

    /// A data dependence always implies time-compatibility of producer and
    /// consumer under an ASAP schedule with upper bounds.
    #[test]
    fn dependences_imply_compatibility(ops in 2usize..14, seed in any::<u64>()) {
        let graph = TgffGenerator::new(TgffConfig::with_ops(ops), seed).generate();
        let cost = SonicCostModel::default();
        let mut wcg = WordlengthCompatibilityGraph::new(&graph, &cost);
        let upper = wcg.upper_bound_latencies();
        let schedule = asap(&graph, &upper);
        wcg.attach_schedule(&schedule, &upper);
        for e in graph.edges() {
            prop_assert!(wcg.compatible(e.from, e.to));
        }
    }
}

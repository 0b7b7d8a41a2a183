//! Algorithm *BindSelect*: combined resource binding and wordlength
//! selection as implicit unate covering.
//!
//! Once a schedule (with latency upper bounds) has been attached to the
//! wordlength compatibility graph, every set of pairwise time-compatible
//! operations that share a common compatible resource type is a candidate
//! *clique* `k` satisfying Eqn (4); covering all operations with cliques at
//! minimum total resource cost is a weighted unate covering problem (Eqn 6).
//! Because the number of cliques is exponential, the paper — and this module
//! — solves it implicitly in polynomial time, extending Chvátal's greedy
//! set-covering heuristic:
//!
//! 1. repeatedly pick, over all resource types `r`, a **maximum clique**
//!    `p_r` of still-uncovered operations inside `O(r)` (a longest chain of
//!    the transitively-oriented subgraph), and select the `r` maximising
//!    `|p_r| / cost(r)`.  The scan covers the graph's
//!    [`bind_candidates`](WordlengthCompatibilityGraph::bind_candidates),
//!    which the allocator narrows to the types no other type dominates;
//!    a dominated type never wins a round;
//! 2. after every selection, try to **grow** the newly selected clique to
//!    swallow previously selected cliques; any clique swallowed this way is
//!    deleted, compensating for the greediness of earlier selections.

use std::cmp::Ordering;

use mwl_model::{Area, OpId};
use mwl_wcg::WordlengthCompatibilityGraph;

use crate::datapath::ResourceInstance;
use crate::error::AllocError;
use crate::scratch::BindScratch;

/// Options controlling [`bind_select`]; the defaults follow the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BindSelectOptions {
    /// Enable the clique-growth compensation step (step 2 above).  Disabling
    /// it degrades the binding to plain greedy covering; exposed for the
    /// ablation benchmarks.
    pub grow_cliques: bool,
}

impl Default for BindSelectOptions {
    fn default() -> Self {
        BindSelectOptions { grow_cliques: true }
    }
}

/// Runs Algorithm *BindSelect* on a scheduled wordlength compatibility graph,
/// returning one [`ResourceInstance`] per selected clique.
///
/// # Errors
///
/// Returns [`AllocError::UncoverableOperation`] if some operation has no
/// compatible resource type left (which the allocator's refinement step never
/// causes).
///
/// # Panics
///
/// Panics if no schedule has been attached to the graph (see
/// [`WordlengthCompatibilityGraph::attach_schedule`]).
pub fn bind_select(
    wcg: &WordlengthCompatibilityGraph,
    options: BindSelectOptions,
) -> Result<Vec<ResourceInstance>, AllocError> {
    let mut scratch = BindScratch::default();
    bind_select_with_scratch(wcg, options, &mut scratch)?;
    Ok(materialize_instances(wcg, &scratch))
}

/// Builds the [`ResourceInstance`] list from the cliques a
/// [`bind_select_with_scratch`] call left in the scratch — paid only when a
/// binding is actually kept (the allocator materialises the feasible
/// iteration's binding, not every iteration's).
pub(crate) fn materialize_instances(
    wcg: &WordlengthCompatibilityGraph,
    scratch: &BindScratch,
) -> Vec<ResourceInstance> {
    (0..scratch.clique_count)
        .map(|k| {
            ResourceInstance::new(
                *wcg.resource(scratch.clique_res[k]),
                scratch.clique_ops[k].clone(),
            )
        })
        .collect()
}

/// The scratch-reusing form of [`bind_select`] the allocator's inner loop
/// runs once per refinement iteration (one [`crate::AllocScratch`] per
/// driver worker).  Decisions are identical to [`bind_select`]; the selected
/// cliques are left in the scratch's pooled arrays (see
/// [`materialize_instances`]) and their number is returned.
pub(crate) fn bind_select_with_scratch(
    wcg: &WordlengthCompatibilityGraph,
    options: BindSelectOptions,
    scratch: &mut BindScratch,
) -> Result<usize, AllocError> {
    let n = wcg.num_ops();
    let words = wcg.op_mask_words();
    let BindScratch {
        covered,
        chain,
        best_chain,
        clique_ops,
        clique_res,
        clique_masks,
        new_mask,
        union_mask,
        uncovered_mask,
        uncovered_ranks,
        clique_count: clique_slot,
    } = scratch;
    covered.clear();
    covered.resize(n, false);
    union_mask.clear();
    union_mask.resize(words, 0);
    uncovered_mask.clear();
    uncovered_mask.resize(words, 0);
    for i in 0..n {
        uncovered_mask[i / 64] |= 1u64 << (i % 64);
    }
    // End ranks are a permutation of `0..n`, so the end-rank mask starts
    // full too.
    uncovered_ranks.clone_from(uncovered_mask);
    let mut remaining = n;
    // Selected cliques live in the pooled parallel arrays `clique_ops` /
    // `clique_res` / `clique_masks` (one `words`-sized chunk per clique);
    // only the first `clique_count` slots are active, the rest keep their
    // capacity warm across rounds and jobs.
    let mut clique_count = 0usize;

    while remaining > 0 {
        // Find, per resource type, the size of a maximum clique of uncovered
        // operations and keep the resource that `outranks` the others.  The
        // key reads only the clique's length, so the chain itself is built
        // once, for the winner, after the scan.  Only the graph's bind
        // candidates are scanned: a type outside them is outranked by one
        // inside for every `H` refinement reaches (see
        // `prune_bind_candidates`).  The scan is ascending, so among full
        // ties the lower index wins.
        let mut best: Option<(usize, (usize, Area))> = None;
        for &r in wcg.bind_candidates() {
            // The uncovered candidate count bounds any chain's length, so a
            // resource whose count/area ratio already falls short of the
            // incumbent's cannot win — skip it without counting its chain.
            // A zero count means no chain.
            let count = wcg.mask_candidate_count(uncovered_mask, r);
            if count == 0 {
                continue;
            }
            let area = wcg.resource_area(r).max(1);
            if best.is_some_and(|(_, incumbent)| ratio_cmp((count, area), incumbent).is_lt()) {
                continue;
            }
            let len = wcg.max_chain_len(r, uncovered_ranks);
            if best.is_none_or(|(_, incumbent)| outranks((len, area), incumbent)) {
                best = Some((r, (len, area)));
            }
        }

        let Some((resource, _)) = best else {
            // Some operation is uncovered but no resource can execute it.
            let op = (0..n)
                .map(|i| OpId::new(i as u32))
                .find(|o| !covered[o.index()])
                .expect("loop condition guarantees an uncovered operation");
            return Err(AllocError::UncoverableOperation(op));
        };

        wcg.max_chain_into(resource, covered, chain, best_chain);
        for &op in best_chain.iter() {
            covered[op.index()] = true;
            uncovered_mask[op.index() / 64] &= !(1u64 << (op.index() % 64));
            let rank = wcg.end_rank(op);
            uncovered_ranks[rank / 64] &= !(1u64 << (rank % 64));
        }
        remaining -= best_chain.len();
        // The new clique grows in `best_chain` itself (the next selection
        // round overwrites it); its operation bitset lives in `new_mask`.
        new_mask.clear();
        new_mask.resize(words, 0);
        for &op in best_chain.iter() {
            new_mask[op.index() / 64] |= 1u64 << (op.index() % 64);
        }

        if options.grow_cliques {
            // Try to grow the new clique to absorb previously selected
            // cliques; absorbed cliques are deleted (their resource cost is
            // saved).  Cover and chainness are tested on the word-parallel
            // union mask.
            let mut i = 0;
            while i < clique_count {
                for w in 0..words {
                    union_mask[w] = new_mask[w] | clique_masks[i * words + w];
                }
                if wcg.mask_covered_by(union_mask, resource) && wcg.mask_is_chain(union_mask) {
                    // Swallow clique `i`: append its operations to the new
                    // clique and close the gap, preserving selection order.
                    // The absorbed slot's buffer rotates past the active
                    // range and is reused by a later selection.
                    best_chain.extend_from_slice(&clique_ops[i]);
                    clique_ops[i..clique_count].rotate_left(1);
                    clique_res.copy_within(i + 1..clique_count, i);
                    new_mask.copy_from_slice(&union_mask[..words]);
                    clique_masks.copy_within((i + 1) * words..clique_count * words, i * words);
                    clique_count -= 1;
                } else {
                    i += 1;
                }
            }
        }

        // Append the (possibly grown) new clique to the active range.
        if clique_ops.len() == clique_count {
            clique_ops.push(Vec::new());
        }
        if clique_res.len() == clique_count {
            clique_res.push(0);
        }
        clique_ops[clique_count].clear();
        clique_ops[clique_count].extend_from_slice(best_chain);
        clique_res[clique_count] = resource;
        if clique_masks.len() < (clique_count + 1) * words {
            clique_masks.resize((clique_count + 1) * words, 0);
        }
        clique_masks[clique_count * words..][..words].copy_from_slice(new_mask);
        clique_count += 1;
    }

    *clique_slot = clique_count;
    Ok(clique_count)
}

/// Orders the ratios `len / area` of two `(len, area)` keys exactly, by
/// their `u128` cross products.
fn ratio_cmp((len, area): (usize, Area), (other_len, other_area): (usize, Area)) -> Ordering {
    (len as u128 * u128::from(other_area)).cmp(&(other_len as u128 * u128::from(area)))
}

/// Whether a chain of `len ≥ 1` operations on a type of area `area` wins a
/// covering round over the incumbent's: a higher `len / area`, then a longer
/// chain.  Equal ratios and lengths mean equal areas, so a smaller-area rule
/// would never decide; the rest of the tie goes to the incumbent.
///
/// The frozen [`crate::reference`] compares `f64` quotients within
/// `f64::EPSILON`, then lengths, then areas; the two agree while lengths
/// and areas stay below 2²⁴.  Two distinct ratios `l/a ≠ m/b` then differ
/// by at least `1/(ab) > 2⁻⁴⁸`, and rounding moves them by at most
/// `2⁻⁵³(l/a + m/b)`, so after rounding they stay more than `EPSILON` apart,
/// while equal ratios round equally.
fn outranks(key: (usize, Area), incumbent: (usize, Area)) -> bool {
    ratio_cmp(key, incumbent)
        .then(key.0.cmp(&incumbent.0))
        .is_gt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwl_model::{
        CostModel, OpShape, ResourceType, SequencingGraph, SequencingGraphBuilder, SonicCostModel,
    };
    use mwl_sched::{asap, OpLatencies};
    use proptest::prelude::*;

    fn scheduled_wcg(graph: &SequencingGraph) -> WordlengthCompatibilityGraph {
        let cost = SonicCostModel::default();
        let mut wcg = WordlengthCompatibilityGraph::new(graph, &cost);
        let upper = wcg.upper_bound_latencies();
        let schedule = asap(graph, &upper);
        wcg.attach_schedule(&schedule, &upper);
        wcg
    }

    fn total_area(instances: &[ResourceInstance]) -> u64 {
        let cost = SonicCostModel::default();
        instances.iter().map(|i| cost.area(&i.resource())).sum()
    }

    fn covers_all(instances: &[ResourceInstance], graph: &SequencingGraph) -> bool {
        let mut seen = vec![0usize; graph.len()];
        for inst in instances {
            for &op in inst.ops() {
                seen[op.index()] += 1;
            }
        }
        seen.iter().all(|&c| c == 1)
    }

    #[test]
    fn chain_of_multiplications_shares_one_resource() {
        // x -> y -> z, all 8x8: one multiplier instance suffices.
        let mut b = SequencingGraphBuilder::new();
        let x = b.add_operation(OpShape::multiplier(8, 8));
        let y = b.add_operation(OpShape::multiplier(8, 8));
        let z = b.add_operation(OpShape::multiplier(8, 8));
        b.add_dependency(x, y).unwrap();
        b.add_dependency(y, z).unwrap();
        let g = b.build().unwrap();
        let wcg = scheduled_wcg(&g);
        let instances = bind_select(&wcg, BindSelectOptions::default()).unwrap();
        assert_eq!(instances.len(), 1);
        assert_eq!(instances[0].sharing_factor(), 3);
        assert!(covers_all(&instances, &g));
    }

    #[test]
    fn parallel_multiplications_need_separate_instances() {
        let mut b = SequencingGraphBuilder::new();
        b.add_operation(OpShape::multiplier(8, 8));
        b.add_operation(OpShape::multiplier(8, 8));
        let g = b.build().unwrap();
        let wcg = scheduled_wcg(&g);
        let instances = bind_select(&wcg, BindSelectOptions::default()).unwrap();
        assert_eq!(instances.len(), 2);
        assert!(covers_all(&instances, &g));
    }

    #[test]
    fn small_op_absorbed_into_larger_resource() {
        // A small multiplication followed by a large one: both fit on one
        // large multiplier because they are sequential (dependence).
        let mut b = SequencingGraphBuilder::new();
        let s = b.add_operation(OpShape::multiplier(8, 8));
        let l = b.add_operation(OpShape::multiplier(16, 16));
        b.add_dependency(s, l).unwrap();
        let g = b.build().unwrap();
        let wcg = scheduled_wcg(&g);
        let instances = bind_select(&wcg, BindSelectOptions::default()).unwrap();
        assert_eq!(instances.len(), 1);
        assert_eq!(instances[0].resource(), ResourceType::multiplier(16, 16));
        assert!(covers_all(&instances, &g));
    }

    #[test]
    fn mixed_classes_never_share() {
        let mut b = SequencingGraphBuilder::new();
        let m = b.add_operation(OpShape::multiplier(8, 8));
        let a = b.add_operation(OpShape::adder(16));
        b.add_dependency(m, a).unwrap();
        let g = b.build().unwrap();
        let wcg = scheduled_wcg(&g);
        let instances = bind_select(&wcg, BindSelectOptions::default()).unwrap();
        assert_eq!(instances.len(), 2);
        assert!(covers_all(&instances, &g));
    }

    #[test]
    fn growth_never_increases_area() {
        // Compare with and without the growth step over a family of graphs.
        use mwl_tgff::{TgffConfig, TgffGenerator};
        let mut generator = TgffGenerator::new(TgffConfig::with_ops(12), 31);
        for _ in 0..20 {
            let g = generator.generate();
            let wcg = scheduled_wcg(&g);
            let with = bind_select(&wcg, BindSelectOptions { grow_cliques: true }).unwrap();
            let without = bind_select(
                &wcg,
                BindSelectOptions {
                    grow_cliques: false,
                },
            )
            .unwrap();
            assert!(covers_all(&with, &g));
            assert!(covers_all(&without, &g));
            assert!(total_area(&with) <= total_area(&without));
        }
    }

    #[test]
    fn every_instance_clique_is_time_compatible() {
        use mwl_tgff::{TgffConfig, TgffGenerator};
        let mut generator = TgffGenerator::new(TgffConfig::with_ops(15), 7);
        for _ in 0..10 {
            let g = generator.generate();
            let wcg = scheduled_wcg(&g);
            let instances = bind_select(&wcg, BindSelectOptions::default()).unwrap();
            assert!(covers_all(&instances, &g));
            for inst in &instances {
                assert!(wcg.is_chain(inst.ops()), "instance ops must form a chain");
                for &op in inst.ops() {
                    assert!(inst.resource().covers(g.operation(op).shape()));
                }
            }
        }
    }

    #[test]
    fn uncoverable_operation_is_reported() {
        let mut b = SequencingGraphBuilder::new();
        let x = b.add_operation(OpShape::multiplier(8, 8));
        let g = b.build().unwrap();
        let cost = SonicCostModel::default();
        // A resource set without a multiplier leaves the only operation
        // with no `H` edge.
        let mut wcg =
            WordlengthCompatibilityGraph::with_resources(&g, vec![ResourceType::adder(8)], &cost);
        let latencies = OpLatencies::from_fn(&g, |op| cost.native_latency(op.shape()));
        let schedule = asap(&g, &latencies);
        wcg.attach_schedule(&schedule, &latencies);
        let err = bind_select(&wcg, BindSelectOptions::default()).unwrap_err();
        assert_eq!(err, AllocError::UncoverableOperation(x));
    }

    /// The `f64` comparator `BindSelect` ran before it compared ratios
    /// exactly: the ratio within `f64::EPSILON`, then a longer chain, then a
    /// smaller area.
    fn f64_outranks((len, area): (usize, Area), (l, a): (usize, Area)) -> bool {
        let (key, best) = (len as f64 / area as f64, l as f64 / a as f64);
        key > best + f64::EPSILON
            || ((key - best).abs() <= f64::EPSILON && (len > l || (len == l && area < a)))
    }

    /// A value in `1..2^bits`.
    fn below_bits(raw: u64, bits: u32) -> u64 {
        1 + raw % ((1u64 << bits) - 1).max(1)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 4096, ..ProptestConfig::default() })]

        /// Below the old 2²⁴ guard on lengths and areas, the exact order
        /// and the `f64` one agree on every pair, for the win and for the
        /// pre-skip.  Narrow ranges make equal ratios common.
        #[test]
        fn exact_and_f64_comparators_agree_below_2_24(
            bits in 1u32..=24,
            raw in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        ) {
            let key = (below_bits(raw.0, bits) as usize, below_bits(raw.1, bits));
            let incumbent = (below_bits(raw.2, bits) as usize, below_bits(raw.3, bits));
            prop_assert_eq!(outranks(key, incumbent), f64_outranks(key, incumbent));
            let (count, area) = key;
            let (len, a) = incumbent;
            let f64_skips = (count as f64 / area as f64) < (len as f64 / a as f64) - f64::EPSILON;
            prop_assert_eq!(ratio_cmp(key, incumbent).is_lt(), f64_skips);
        }
    }
}

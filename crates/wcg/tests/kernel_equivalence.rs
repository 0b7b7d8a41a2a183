//! Bitset-kernel correctness: every word-parallel query of the wordlength
//! compatibility graph must return exactly what a small naive helper in
//! this file computes from first principles — the edge relation from
//! [`ResourceType::covers`](mwl_model::ResourceType::covers) plus the
//! refinement rule, time compatibility from the schedule's execution
//! intervals — across all `GraphShape` × `WidthProfile` families, through
//! refinement and snapshot/restore, and whether the chain scratch and the
//! graph's own sweep buffers are warm or fresh.
//!
//! The allocator-level identity against the frozen reference lives in
//! `mwl_core/tests/optimization_identity.rs`.

use proptest::prelude::*;

use mwl_model::{CostModel, Cycles, OpId, SequencingGraph, SonicCostModel};
use mwl_sched::{asap, OpLatencies};
use mwl_tgff::{GraphShape, TgffConfig, TgffGenerator, WidthProfile};
use mwl_wcg::{ChainScratch, WordlengthCompatibilityGraph};

/// One generated problem covering the full scenario space.
#[derive(Debug, Clone)]
struct Case {
    shape: GraphShape,
    widths: WidthProfile,
    ops: usize,
    seed: u64,
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        prop_oneof![
            Just(GraphShape::Layered),
            Just(GraphShape::Wide),
            Just(GraphShape::Deep),
            Just(GraphShape::Diamond),
        ],
        prop_oneof![
            Just(WidthProfile::Uniform),
            Just(WidthProfile::Mixed { high_fraction: 0.3 }),
            Just(WidthProfile::Mixed { high_fraction: 0.7 }),
        ],
        // Past 64 ops the operation masks span more than one word.
        prop_oneof![1usize..=14, 1usize..=14, 1usize..=14, 60usize..=72],
        0u64..=2000,
    )
        .prop_map(|(shape, widths, ops, seed)| Case {
            shape,
            widths,
            ops,
            seed,
        })
}

fn build(case: &Case) -> SequencingGraph {
    let config = TgffConfig::with_ops(case.ops)
        .shape(case.shape)
        .width_profile(case.widths);
    TgffGenerator::new(config, case.seed).generate()
}

/// The naive model: a dense `bool` edge matrix, resource latencies and
/// (once scheduled) the execution intervals.
struct Naive {
    edges: Vec<Vec<bool>>,
    latencies: Vec<Cycles>,
    intervals: Vec<(Cycles, Cycles)>,
}

impl Naive {
    /// Every `{o, r}` with `r.covers(o)`, over the graph's resource set.
    fn new(graph: &SequencingGraph, wcg: &WordlengthCompatibilityGraph) -> Self {
        let cost = SonicCostModel::default();
        let resources = wcg.resources();
        Naive {
            edges: graph
                .operations()
                .iter()
                .map(|op| resources.iter().map(|r| r.covers(op.shape())).collect())
                .collect(),
            latencies: resources.iter().map(|r| cost.latency(r)).collect(),
            intervals: Vec::new(),
        }
    }

    fn candidates(&self, op: OpId) -> Vec<usize> {
        (0..self.latencies.len())
            .filter(|&r| self.edges[op.index()][r])
            .collect()
    }

    fn ops_for(&self, r: usize) -> Vec<OpId> {
        (0..self.edges.len())
            .filter(|&o| self.edges[o][r])
            .map(|o| OpId::new(o as u32))
            .collect()
    }

    fn upper(&self, op: OpId) -> Cycles {
        self.candidates(op)
            .iter()
            .map(|&r| self.latencies[r])
            .max()
            .unwrap_or(0)
    }

    /// Deletes the edges at the upper-bound latency unless that would
    /// delete them all.
    fn refine(&mut self, op: OpId) -> usize {
        let bound = self.upper(op);
        let slow: Vec<usize> = self
            .candidates(op)
            .into_iter()
            .filter(|&r| self.latencies[r] == bound)
            .collect();
        if slow.len() == self.candidates(op).len() {
            return 0;
        }
        for &r in &slow {
            self.edges[op.index()][r] = false;
        }
        slow.len()
    }

    fn attach(&mut self, graph: &SequencingGraph, latencies: &OpLatencies) {
        let schedule = asap(graph, latencies);
        self.intervals = graph
            .op_ids()
            .map(|o| (schedule.start(o), schedule.end(o, latencies)))
            .collect();
    }

    fn disjoint(&self, a: OpId, b: OpId) -> bool {
        let (sa, ea) = self.intervals[a.index()];
        let (sb, eb) = self.intervals[b.index()];
        ea <= sb || eb <= sa
    }

    fn is_chain(&self, ops: &[OpId]) -> bool {
        ops.iter()
            .enumerate()
            .all(|(i, &a)| ops[i + 1..].iter().all(|&b| self.disjoint(a, b)))
    }

    /// Longest chain of uncovered ops in `O(r)`: candidates ordered by
    /// `(start, end, id)`, the first longest predecessor kept, and the last
    /// longest tail taken.
    fn max_chain(&self, r: usize, covered: &[bool]) -> Vec<OpId> {
        let mut cands: Vec<OpId> = self
            .ops_for(r)
            .into_iter()
            .filter(|o| !covered[o.index()])
            .collect();
        cands.sort_by_key(|o| (self.intervals[o.index()], *o));
        let mut best: Vec<(usize, Option<usize>)> = Vec::new();
        for i in 0..cands.len() {
            let mut entry = (1, None);
            for (j, &(len, _)) in best.iter().enumerate() {
                let before =
                    self.intervals[cands[j].index()].1 <= self.intervals[cands[i].index()].0;
                if before && len + 1 > entry.0 {
                    entry = (len + 1, Some(j));
                }
            }
            best.push(entry);
        }
        let mut chain = Vec::new();
        let mut tail = (0..cands.len()).max_by_key(|&i| best[i].0);
        while let Some(i) = tail {
            chain.push(cands[i]);
            tail = best[i].1;
        }
        chain.reverse();
        chain
    }
}

/// Asserts the whole edge relation and every per-op / per-resource query
/// of `wcg` against the naive model.
fn assert_structure(graph: &SequencingGraph, wcg: &WordlengthCompatibilityGraph, naive: &Naive) {
    let mut edges = 0;
    for op in graph.op_ids() {
        let expected = naive.candidates(op);
        edges += expected.len();
        assert_eq!(wcg.resources_for(op), expected.clone());
        assert_eq!(wcg.candidates(op).collect::<Vec<_>>(), expected);
        assert_eq!(wcg.upper_bound_latency(op), naive.upper(op));
        for r in 0..naive.latencies.len() {
            assert_eq!(wcg.has_edge(op, r), naive.edges[op.index()][r]);
        }
    }
    let words = wcg.op_mask_words();
    for r in 0..naive.latencies.len() {
        let expected = naive.ops_for(r);
        assert_eq!(wcg.resource_edge_count(r), expected.len());
        let column = &wcg.resource_columns()[r * words..][..words];
        for op in graph.op_ids() {
            let bit = column[op.index() / 64] >> (op.index() % 64) & 1 == 1;
            assert_eq!(bit, expected.contains(&op));
        }
        assert_eq!(wcg.ops_for(r), expected);
    }
    assert_eq!(wcg.num_edges(), edges);
}

/// Deterministic bit source for subset sampling (no `rand` dev-dependency
/// here; proptest drives the seed).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A pseudo-random subset of the operations.
fn sample_subset(graph: &SequencingGraph, state: &mut u64) -> Vec<OpId> {
    let bits = [splitmix(state), splitmix(state)];
    graph
        .op_ids()
        .filter(|o| bits[(o.index() / 64) % 2] & (1 << (o.index() % 64)) != 0)
        .collect()
}

fn mask_of(ops: &[OpId], words: usize) -> Vec<u64> {
    let mut mask = vec![0u64; words];
    for op in ops {
        mask[op.index() / 64] |= 1 << (op.index() % 64);
    }
    mask
}

/// The uncovered operations of a covered map, as the end-rank mask
/// `max_chain_len` reads.
fn uncovered_ranks(wcg: &WordlengthCompatibilityGraph, covered: &[bool]) -> Vec<u64> {
    let mut mask = vec![0u64; wcg.op_mask_words()];
    for (i, _) in covered.iter().enumerate().filter(|(_, &c)| !c) {
        let rank = wcg.end_rank(OpId::new(i as u32));
        mask[rank / 64] |= 1 << (rank % 64);
    }
    mask
}

/// A graph with an ASAP schedule under its upper bounds, and the naive
/// model of the same state.
fn scheduled(graph: &SequencingGraph) -> (WordlengthCompatibilityGraph, Naive) {
    let mut wcg = WordlengthCompatibilityGraph::new(graph, &SonicCostModel::default());
    let mut naive = Naive::new(graph, &wcg);
    let upper = wcg.upper_bound_latencies();
    wcg.attach_schedule(&asap(graph, &upper), &upper);
    naive.attach(graph, &upper);
    (wcg, naive)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Structural queries match the naive edge relation.
    #[test]
    fn structure_queries_match_naive(case in case_strategy()) {
        let graph = build(&case);
        let (wcg, naive) = scheduled(&graph);
        assert_structure(&graph, &wcg, &naive);
    }

    /// `compatible`, `is_chain` and `mask_is_chain` match the pairwise
    /// interval test on every pair, on arbitrary subsets and on real chains.
    #[test]
    fn chain_tests_match_naive(case in case_strategy(), subset_seed in any::<u64>()) {
        let graph = build(&case);
        let (wcg, naive) = scheduled(&graph);
        let words = wcg.op_mask_words();
        for a in graph.op_ids() {
            for b in graph.op_ids() {
                let (ea, sb) = (naive.intervals[a.index()].1, naive.intervals[b.index()].0);
                prop_assert_eq!(wcg.compatible(a, b), ea <= sb);
                prop_assert_eq!(wcg.is_chain(&[a, b]), a != b && naive.disjoint(a, b));
            }
        }
        let mut state = subset_seed;
        for round in 0..12 {
            // Mix in real chains so the `true` branch is exercised, not just
            // random (usually incompatible) subsets.
            let subset = if round % 3 == 0 {
                let covered = vec![false; graph.len()];
                naive.max_chain(round % naive.latencies.len(), &covered)
            } else {
                sample_subset(&graph, &mut state)
            };
            let expected = naive.is_chain(&subset);
            prop_assert_eq!(wcg.is_chain(&subset), expected);
            prop_assert_eq!(wcg.mask_is_chain(&mask_of(&subset, words)), expected);
        }
    }

    /// `max_chain_into` returns the naive longest chain, and `max_chain_len`
    /// its length, for every resource and arbitrary covered sets — and a
    /// warm chain scratch (reused across every query) and a warm graph
    /// (rebuilt and re-attached over another problem's buffers) are
    /// indistinguishable from fresh ones.
    #[test]
    fn max_chain_matches_naive_warm_and_fresh(
        case in case_strategy(),
        covered_seed in any::<u64>(),
    ) {
        let graph = build(&case);
        let (wcg, naive) = scheduled(&graph);
        let cost = SonicCostModel::default();
        let other = build(&Case { ops: 73 - case.ops.min(72), seed: case.seed + 1, ..case.clone() });
        let mut warm_wcg = WordlengthCompatibilityGraph::new(&other, &cost);
        let other_upper = warm_wcg.upper_bound_latencies();
        warm_wcg.attach_schedule(&asap(&other, &other_upper), &other_upper);
        warm_wcg.rebuild(&graph, &cost);
        let upper = warm_wcg.upper_bound_latencies();
        warm_wcg.attach_schedule(&asap(&graph, &upper), &upper);

        let mut state = covered_seed;
        let mut warm = ChainScratch::default();
        let mut warm_chain = Vec::new();
        for round in 0..4 {
            let mut covered = vec![false; graph.len()];
            if round > 0 {
                for op in sample_subset(&graph, &mut state) {
                    covered[op.index()] = true;
                }
            }
            let fresh_ranks = uncovered_ranks(&wcg, &covered);
            let warm_ranks = uncovered_ranks(&warm_wcg, &covered);
            for r in 0..naive.latencies.len() {
                let expected = naive.max_chain(r, &covered);
                let mut fresh_chain = Vec::new();
                wcg.max_chain_into(r, &covered, &mut ChainScratch::default(), &mut fresh_chain);
                prop_assert_eq!(&fresh_chain, &expected);
                wcg.max_chain_into(r, &covered, &mut warm, &mut warm_chain);
                prop_assert_eq!(&warm_chain, &expected);
                prop_assert_eq!(wcg.max_chain_len(r, &fresh_ranks), expected.len());
                prop_assert_eq!(warm_wcg.max_chain_len(r, &warm_ranks), expected.len());
            }
        }
    }

    /// The mask kernels match their scalar definitions: `mask_covered_by`
    /// ⇔ every masked op has the `H` edge, `mask_candidate_count` =
    /// |mask ∩ O(r)|.
    #[test]
    fn mask_kernels_match_naive(case in case_strategy(), mask_seed in any::<u64>()) {
        let graph = build(&case);
        let (wcg, naive) = scheduled(&graph);
        let words = wcg.op_mask_words();
        let mut state = mask_seed;
        for _ in 0..8 {
            let subset = sample_subset(&graph, &mut state);
            let mask = mask_of(&subset, words);
            for r in 0..naive.latencies.len() {
                prop_assert_eq!(
                    wcg.mask_covered_by(&mask, r),
                    subset.iter().all(|o| naive.edges[o.index()][r])
                );
                prop_assert_eq!(
                    wcg.mask_candidate_count(&mask, r),
                    subset.iter().filter(|o| naive.edges[o.index()][r]).count()
                );
            }
        }
    }

    /// Refinement follows the naive rule step for step — removed counts,
    /// upper bounds and the whole edge relation — and a snapshot restore
    /// brings back the unrefined graph with no schedule attached.
    #[test]
    fn refinement_and_restore_match_naive(case in case_strategy()) {
        let graph = build(&case);
        let cost = SonicCostModel::default();
        let mut wcg = WordlengthCompatibilityGraph::new(&graph, &cost);
        let mut naive = Naive::new(&graph, &wcg);
        wcg.snapshot_pristine();
        let upper = wcg.upper_bound_latencies();
        wcg.attach_schedule(&asap(&graph, &upper), &upper);
        naive.attach(&graph, &upper);

        for op in graph.op_ids() {
            loop {
                let removed = wcg.refine_op(op);
                prop_assert_eq!(removed, naive.refine(op));
                prop_assert_eq!(wcg.upper_bound_latency(op), naive.upper(op));
                if removed == 0 {
                    break;
                }
            }
            prop_assert!(!wcg.refinable(op));
        }
        assert_structure(&graph, &wcg, &naive);
        // Deletions under an attached schedule reach the end-rank columns.
        let covered = vec![false; graph.len()];
        let ranks = uncovered_ranks(&wcg, &covered);
        for r in 0..naive.latencies.len() {
            prop_assert_eq!(wcg.max_chain_len(r, &ranks), naive.max_chain(r, &covered).len());
        }

        wcg.restore_pristine();
        prop_assert!(!wcg.has_schedule());
        assert_structure(&graph, &wcg, &Naive::new(&graph, &wcg));
    }

    /// The tables the graph maintains instead of scanning — the fastest
    /// latency behind `refinable` and the `|O(r)|` counts — stay equal to
    /// their definitions through a random history of refinements,
    /// snapshots, restores, attaches, detaches and rebuilds.
    #[test]
    fn maintained_tables_follow_random_histories(
        case in case_strategy(),
        history_seed in any::<u64>(),
    ) {
        let graph = build(&case);
        let cost = SonicCostModel::default();
        let mut wcg = WordlengthCompatibilityGraph::new(&graph, &cost);
        let mut state = history_seed;
        let mut snapshotted = false;
        for _ in 0..4 * graph.len() + 8 {
            match splitmix(&mut state) % 8 {
                0 => {
                    wcg.snapshot_pristine();
                    snapshotted = true;
                }
                1 if snapshotted => wcg.restore_pristine(),
                2 => {
                    let upper = wcg.upper_bound_latencies();
                    wcg.attach_schedule(&asap(&graph, &upper), &upper);
                }
                3 => wcg.detach_schedule(),
                4 if splitmix(&mut state).is_multiple_of(4) => {
                    wcg.rebuild(&graph, &cost);
                    snapshotted = false;
                }
                _ => {
                    let op = OpId::new((splitmix(&mut state) % graph.len() as u64) as u32);
                    wcg.refine_op(op);
                }
            }
            for op in graph.op_ids() {
                let mut latencies: Vec<Cycles> =
                    wcg.candidates(op).map(|r| wcg.resource_latency(r)).collect();
                latencies.sort_unstable();
                latencies.dedup();
                prop_assert_eq!(wcg.refinable(op), latencies.len() > 1, "{}", op);
            }
            for r in 0..wcg.resources().len() {
                prop_assert_eq!(wcg.resource_edge_count(r), wcg.ops_for(r).len(), "r{}", r);
            }
        }
    }
}

//! Minimum-cardinality cover computation for the *scheduling set*.
//!
//! Before scheduling, the paper selects a minimum-cardinality subset
//! `S ⊆ R` of resource-wordlength types such that every operation has at
//! least one wordlength edge `{o, s}` with `s ∈ S`.  This is a set-cover
//! instance; it is solved exactly by branch and bound for the problem sizes
//! of the evaluation (≤ 64 coverable items and ≤ 28 candidate sets) and by
//! the classic greedy heuristic beyond that.
//!
//! The three entry points — [`minimum_cover`], [`scheduling_set`] and
//! [`scheduling_set_with_scratch`] — differ only in how the candidate sets
//! arrive; all of them solve through one implementation over flat `u64`
//! bitsets, one row of `ceil(items / 64)` words per candidate set.

use crate::constraint::{set_bits, words_for, WORD_BITS};

/// Upper bound on the number of coverable items for which the exact
/// branch-and-bound cover is attempted (one `u64` mask per candidate).
const EXACT_COVER_ITEM_LIMIT: usize = 64;

/// Upper bound on the number of candidate sets for the exact solver.
/// Trailing candidates that cover nothing do not count.
const EXACT_COVER_CANDIDATE_LIMIT: usize = 28;

/// Computes a minimum-cardinality selection of candidate sets covering all
/// items `0..num_items`.
///
/// `candidates[j]` lists the items covered by candidate `j`.  Items that no
/// candidate covers are ignored (they cannot be covered by any selection),
/// as are entries `>= num_items`.  The result is a sorted list of selected
/// candidate indices; it is exact (minimum cardinality) when the instance is
/// small enough and a greedy approximation otherwise.
///
/// # Examples
///
/// ```
/// use mwl_sched::minimum_cover;
/// // Two candidates each covering one item, one candidate covering both.
/// let cover = minimum_cover(2, &[vec![0], vec![1], vec![0, 1]]);
/// assert_eq!(cover, vec![2]);
/// ```
#[must_use]
pub fn minimum_cover(num_items: usize, candidates: &[Vec<usize>]) -> Vec<usize> {
    let words = words_for(num_items);
    let mut sets = vec![0u64; candidates.len() * words];
    for (j, set) in candidates.iter().enumerate() {
        for &item in set.iter().filter(|&&item| item < num_items) {
            sets[j * words + item / WORD_BITS] |= 1 << (item % WORD_BITS);
        }
    }
    let mut out = Vec::new();
    scheduling_set_with_scratch(num_items, &sets, &mut CoverScratch::default(), &mut out);
    out
}

/// Computes the scheduling set from per-operation candidate lists:
/// `op_candidates[i]` is the list of resource indices able to execute
/// operation `i`.  Returns the selected resource indices, sorted.
///
/// # Examples
///
/// ```
/// use mwl_sched::scheduling_set;
/// // op0 can use resources {0,2}, op1 only resource {2}: {2} covers both.
/// assert_eq!(scheduling_set(&[vec![0, 2], vec![2]]), vec![2]);
/// ```
#[must_use]
pub fn scheduling_set(op_candidates: &[Vec<usize>]) -> Vec<usize> {
    let num_ops = op_candidates.len();
    let num_resources = op_candidates
        .iter()
        .flat_map(|c| c.iter().copied())
        .max()
        .map_or(0, |m| m + 1);
    let words = words_for(num_ops);
    let mut columns = vec![0u64; num_resources * words];
    for (op, cands) in op_candidates.iter().enumerate() {
        for &r in cands {
            columns[r * words + op / WORD_BITS] |= 1 << (op % WORD_BITS);
        }
    }
    let mut out = Vec::new();
    scheduling_set_with_scratch(num_ops, &columns, &mut CoverScratch::default(), &mut out);
    out
}

/// Reusable buffers for [`scheduling_set_with_scratch`]: once they fit
/// the instance, a call allocates nothing.
#[derive(Debug, Default)]
pub struct CoverScratch {
    /// Union of all candidate sets: the coverable items.
    coverable: Vec<u64>,
    /// Rank of every coverable item among the coverable items — its bit in
    /// the single-word masks of the exact solver.
    rank: Vec<u32>,
    /// Single-word candidate masks of the exact solver.
    masks: Vec<u64>,
    /// Greedy working buffers.
    greedy: GreedyScratch,
    /// The exact solver's branching order: candidates by decreasing
    /// coverage.
    order: Vec<usize>,
    /// The exact solver's selection on the current branch.
    chosen: Vec<usize>,
}

/// Buffers of [`greedy_cover`].
#[derive(Debug, Default)]
struct GreedyScratch {
    /// Items covered by the sets taken so far.
    covered: Vec<u64>,
    /// The sets that still add items, ascending.
    live: Vec<usize>,
}

/// The set-cover solver behind every entry point, over bitset input and
/// reusing the caller's buffers — the form the allocator's inner loop runs
/// once per refinement iteration.
///
/// `columns` holds one bitset per candidate set, `ceil(num_items / 64)`
/// words each: bit `i` of set `j` is set iff candidate `j` covers item `i`
/// (for the scheduling set: operation `i` can run on resource `j`, the `O(r)`
/// columns of the wordlength compatibility graph).  Bits at or above
/// `num_items` must be clear.  The selected candidate indices are written to
/// `out`, sorted; the selection is the one [`minimum_cover`] makes on the
/// same sets.
pub fn scheduling_set_with_scratch(
    num_items: usize,
    columns: &[u64],
    scratch: &mut CoverScratch,
    out: &mut Vec<usize>,
) {
    out.clear();
    if num_items == 0 {
        return;
    }
    let words = words_for(num_items);
    // Candidates past the last non-empty one can never be selected; they
    // must not count toward the exact solver's candidate limit either.
    let mut num_sets = columns.len() / words;
    while num_sets > 0
        && columns[(num_sets - 1) * words..][..words]
            .iter()
            .all(|&w| w == 0)
    {
        num_sets -= 1;
    }
    let sets = &columns[..num_sets * words];
    let CoverScratch {
        coverable,
        rank,
        masks,
        greedy,
        order,
        chosen,
    } = scratch;
    coverable.clear();
    coverable.resize(words, 0);
    for set in sets.chunks_exact(words) {
        for (c, &s) in coverable.iter_mut().zip(set) {
            *c |= s;
        }
    }
    let num_coverable: usize = coverable.iter().map(|w| w.count_ones() as usize).sum();
    if num_coverable == 0 {
        return;
    }
    if num_coverable > EXACT_COVER_ITEM_LIMIT {
        greedy_cover(sets, words, coverable, greedy, out);
        return;
    }
    // At most 64 coverable items: compress each set to one word, item `i`
    // moving to bit `rank[i]`.  When the coverable items are a prefix of
    // `0..num_items` — every item, in the allocator — each sits at its own
    // rank, and a set's first word is its mask.
    let full: u64 = if num_coverable == 64 {
        u64::MAX
    } else {
        (1u64 << num_coverable) - 1
    };
    masks.clear();
    if coverable[0] == full && coverable[1..].iter().all(|&w| w == 0) {
        masks.extend(sets.chunks_exact(words).map(|set| set[0]));
    } else {
        rank.clear();
        rank.resize(num_items, u32::MAX);
        for (position, item) in set_bits(coverable).enumerate() {
            rank[item] = position as u32;
        }
        masks.extend(
            sets.chunks_exact(words)
                .map(|set| set_bits(set).fold(0u64, |m, item| m | 1 << rank[item])),
        );
    }
    if num_sets <= EXACT_COVER_CANDIDATE_LIMIT {
        exact_cover(full, masks, order, chosen, greedy, out);
    } else {
        greedy_cover(masks, 1, &[full], greedy, out);
    }
}

/// The classic greedy set-cover heuristic over `words`-word sets: take the
/// set covering the most not-yet-covered items (ties to the highest index)
/// until `full` is covered or no set adds anything.  The selection, sorted,
/// is written to `out`.
///
/// Each round scans only the sets that still add items.  `covered` only
/// grows, so a set whose gain reaches zero — every taken set, right after
/// it is taken — never gains again and leaves the scan for good.  The scan
/// stays ascending and takes ties with `>=`, so the highest index still
/// wins.
fn greedy_cover(
    sets: &[u64],
    words: usize,
    full: &[u64],
    scratch: &mut GreedyScratch,
    out: &mut Vec<usize>,
) {
    let GreedyScratch { covered, live } = scratch;
    covered.clear();
    covered.resize(words, 0);
    live.clear();
    live.extend(0..sets.len() / words);
    out.clear();
    while covered.as_slice() != full {
        let mut best = None;
        let mut best_gain = 0;
        let mut kept = 0;
        for i in 0..live.len() {
            let j = live[i];
            let gain: u32 = sets[j * words..][..words]
                .iter()
                .zip(covered.iter())
                .map(|(&s, &c)| (s & !c).count_ones())
                .sum();
            if gain == 0 {
                continue;
            }
            live[kept] = j;
            kept += 1;
            if gain >= best_gain {
                best_gain = gain;
                best = Some(j);
            }
        }
        live.truncate(kept);
        let Some(j) = best else { break };
        for (c, &s) in covered.iter_mut().zip(&sets[j * words..][..words]) {
            *c |= s;
        }
        out.push(j);
    }
    out.sort_unstable();
}

/// Minimum-cardinality cover of `full` by branch and bound over single-word
/// masks, seeded with the greedy selection; the result, sorted, is written
/// to `best`.
fn exact_cover(
    full: u64,
    masks: &[u64],
    order: &mut Vec<usize>,
    chosen: &mut Vec<usize>,
    greedy: &mut GreedyScratch,
    best: &mut Vec<usize>,
) {
    // Greedy solution as the initial incumbent / upper bound.
    greedy_cover(masks, 1, &[full], greedy, best);
    let mut best_len = best.len();

    // Order candidates by decreasing coverage for better pruning; the index
    // breaks ties as a stable sort of `0..len` would.
    order.clear();
    order.extend(0..masks.len());
    order.sort_unstable_by_key(|&j| (std::cmp::Reverse(masks[j].count_ones()), j));

    /// Immutable search context shared by every branch-and-bound node.
    struct Search<'a> {
        order: &'a [usize],
        masks: &'a [u64],
        full: u64,
    }

    fn recurse(
        s: &Search<'_>,
        pos: usize,
        covered: u64,
        chosen: &mut Vec<usize>,
        best: &mut Vec<usize>,
        best_len: &mut usize,
    ) {
        let Search { order, masks, full } = *s;
        if covered == full {
            if chosen.len() < *best_len {
                *best_len = chosen.len();
                best.clone_from(chosen);
            }
            return;
        }
        if pos >= order.len() {
            return;
        }
        // Lower bound: remaining items / largest remaining candidate size.
        let remaining = (full & !covered).count_ones() as usize;
        let largest = order[pos..]
            .iter()
            .map(|&j| (masks[j] & !covered).count_ones() as usize)
            .max()
            .unwrap_or(0);
        if largest == 0 {
            return;
        }
        let lower = remaining.div_ceil(largest);
        if chosen.len() + lower >= *best_len {
            return;
        }
        // Branch: pick an uncovered item and try every candidate covering it.
        let uncovered_bit = (full & !covered).trailing_zeros();
        for &j in &order[pos..] {
            if masks[j] & (1u64 << uncovered_bit) == 0 {
                continue;
            }
            chosen.push(j);
            recurse(s, pos, covered | masks[j], chosen, best, best_len);
            chosen.pop();
        }
    }

    let search = Search { order, masks, full };
    chosen.clear();
    recurse(&search, 0, 0, chosen, best, &mut best_len);
    best.sort_unstable();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn covers_all(num_items: usize, candidates: &[Vec<usize>], chosen: &[usize]) -> bool {
        (0..num_items).all(|item| {
            // item must be covered unless no candidate covers it at all
            let coverable = candidates.iter().any(|c| c.contains(&item));
            !coverable || chosen.iter().any(|&j| candidates[j].contains(&item))
        })
    }

    #[test]
    fn empty_inputs() {
        assert!(minimum_cover(0, &[vec![0]]).is_empty());
        assert!(minimum_cover(3, &[]).is_empty());
        assert!(scheduling_set(&[]).is_empty());
    }

    #[test]
    fn single_candidate_covering_everything() {
        let c = vec![vec![0, 1, 2, 3]];
        assert_eq!(minimum_cover(4, &c), vec![0]);
    }

    #[test]
    fn prefers_one_big_set_over_two_small() {
        let c = vec![vec![0], vec![1], vec![0, 1]];
        assert_eq!(minimum_cover(2, &c), vec![2]);
    }

    #[test]
    fn exact_beats_greedy_on_adversarial_instance() {
        // Classic instance where greedy picks 3 sets but the optimum is 2:
        // items 0..=5; optimal = {0,1,2} and {3,4,5};
        // greedy is lured by {2,3,4,5}... construct so greedy takes the big
        // set first then needs two more.
        let c = vec![
            vec![0, 1, 2],    // A (optimal)
            vec![3, 4, 5],    // B (optimal)
            vec![1, 2, 3, 4], // C (greedy bait)
            vec![0],
            vec![5],
        ];
        let cover = minimum_cover(6, &c);
        assert_eq!(cover.len(), 2);
        assert!(covers_all(6, &c, &cover));
    }

    #[test]
    fn uncoverable_items_are_ignored() {
        let c = vec![vec![0]];
        let cover = minimum_cover(3, &c);
        assert_eq!(cover, vec![0]);
    }

    #[test]
    fn scheduling_set_from_op_candidates() {
        // Three ops; resource 1 covers ops 0 and 1; resource 0 covers op 2.
        let ops = vec![vec![0, 1], vec![1], vec![0]];
        let s = scheduling_set(&ops);
        assert_eq!(s, vec![0, 1]);
    }

    #[test]
    fn scheduling_set_single_resource_suffices() {
        // All ops can use resource 3 (the biggest): scheduling set = {3}.
        let ops = vec![vec![0, 3], vec![1, 3], vec![2, 3]];
        assert_eq!(scheduling_set(&ops), vec![3]);
    }

    /// Per-resource column bitsets, `ceil(num_ops / 64)` words each.
    fn columns(num_ops: usize, covers: &[Vec<usize>]) -> Vec<u64> {
        let words = num_ops.div_ceil(64);
        let mut out = vec![0u64; covers.len() * words];
        for (j, set) in covers.iter().enumerate() {
            for &op in set {
                out[j * words + op / 64] |= 1 << (op % 64);
            }
        }
        out
    }

    /// The bitset entry point over per-resource columns selects exactly what
    /// `scheduling_set` selects over the transposed per-op candidate lists,
    /// and a warm scratch changes nothing.
    #[test]
    fn column_entry_point_matches_op_candidate_lists() {
        let mut state = 0xdead_beefu64;
        let mut next = move |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        let mut scratch = CoverScratch::default();
        let mut out = Vec::new();
        for _ in 0..40 {
            let num_ops = 1 + next(12) as usize;
            let num_resources = 1 + next(8) as usize;
            let op_candidates: Vec<Vec<usize>> = (0..num_ops)
                .map(|_| (0..num_resources).filter(|_| next(3) != 0).collect())
                .collect();
            let mut covers: Vec<Vec<usize>> = vec![Vec::new(); num_resources];
            for (op, cands) in op_candidates.iter().enumerate() {
                for &r in cands {
                    covers[r].push(op);
                }
            }
            scheduling_set_with_scratch(
                num_ops,
                &columns(num_ops, &covers),
                &mut scratch,
                &mut out,
            );
            assert_eq!(
                out,
                scheduling_set(&op_candidates),
                "candidates: {op_candidates:?}"
            );
        }
        // Degenerate shapes.
        scheduling_set_with_scratch(0, &[], &mut scratch, &mut out);
        assert!(out.is_empty());
        scheduling_set_with_scratch(3, &[], &mut scratch, &mut out);
        assert!(out.is_empty());
        scheduling_set_with_scratch(2, &[0, 0], &mut scratch, &mut out);
        assert!(out.is_empty());
    }

    /// Candidates emptied by refinement at the end of the resource list do
    /// not count toward the exact solver's candidate limit: an instance with
    /// five useful sets padded to thirty still gets the exact two-set cover
    /// the greedy heuristic misses.
    #[test]
    fn trailing_empty_candidates_keep_the_exact_solver() {
        let mut c = vec![
            vec![0, 1, 2],
            vec![3, 4, 5],
            vec![1, 2, 3, 4],
            vec![0],
            vec![5],
        ];
        let mut greedy = Vec::new();
        greedy_cover(
            &columns(6, &c),
            1,
            &[0b11_1111],
            &mut GreedyScratch::default(),
            &mut greedy,
        );
        assert_eq!(greedy.len(), 3);
        c.resize(EXACT_COVER_CANDIDATE_LIMIT + 2, Vec::new());
        assert_eq!(minimum_cover(6, &c), vec![0, 1]);
        let mut out = Vec::new();
        scheduling_set_with_scratch(6, &columns(6, &c), &mut CoverScratch::default(), &mut out);
        assert_eq!(out, vec![0, 1]);
    }

    /// More than 64 coverable items exceeds the 64-bit mask representation:
    /// the multi-word greedy must take over and still produce a valid cover.
    #[test]
    fn more_than_64_items_use_the_multiword_greedy() {
        let num_items = 70;
        let mut candidates: Vec<Vec<usize>> = (0..num_items).map(|i| vec![i]).collect();
        candidates.push((0..num_items).collect());
        let cover = minimum_cover(num_items, &candidates);
        assert!(covers_all(num_items, &candidates, &cover));
        assert_eq!(cover, vec![num_items]); // the big candidate wins
                                            // Two medium sets beat seventy singletons.
        let split: Vec<Vec<usize>> = {
            let mut c: Vec<Vec<usize>> = (0..num_items).map(|i| vec![i]).collect();
            c.push((0..40).collect());
            c.push((40..num_items).collect());
            c
        };
        let cover = minimum_cover(num_items, &split);
        assert!(covers_all(num_items, &split, &cover));
        assert_eq!(cover, vec![num_items, num_items + 1]);
    }

    #[test]
    fn greedy_path_used_for_large_instances() {
        // More candidates than the exact limit: still returns a valid cover.
        let num_items = 40;
        let mut candidates: Vec<Vec<usize>> = (0..num_items).map(|i| vec![i]).collect();
        candidates.push((0..num_items).collect());
        let cover = minimum_cover(num_items, &candidates);
        assert!(covers_all(num_items, &candidates, &cover));
        assert_eq!(cover, vec![num_items]); // the big candidate wins
    }

    #[test]
    fn exact_matches_brute_force_on_small_random_instances() {
        // Deterministic pseudo-random small instances; compare with brute force.
        let mut state = 0x1234_5678u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..30 {
            let items = 6;
            let nsets = 6;
            let candidates: Vec<Vec<usize>> = (0..nsets)
                .map(|_| (0..items).filter(|_| next() % 3 == 0).collect())
                .collect();
            let chosen = minimum_cover(items, &candidates);
            // Brute force minimal cardinality over coverable items.
            let coverable: Vec<usize> = (0..items)
                .filter(|&i| candidates.iter().any(|c| c.contains(&i)))
                .collect();
            let mut best = usize::MAX;
            for mask in 0u32..(1 << nsets) {
                let sel: Vec<usize> = (0..nsets).filter(|&j| mask & (1 << j) != 0).collect();
                if coverable
                    .iter()
                    .all(|&i| sel.iter().any(|&j| candidates[j].contains(&i)))
                {
                    best = best.min(sel.len());
                }
            }
            if best == usize::MAX {
                assert!(chosen.is_empty());
            } else {
                assert_eq!(chosen.len(), best, "candidates: {candidates:?}");
            }
            assert!(covers_all(items, &candidates, &chosen));
        }
    }
}

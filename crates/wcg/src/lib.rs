//! The wordlength compatibility graph `G(V, E)` of Section 2.1.
//!
//! The vertex set is partitioned into operations `O` and resource-wordlength
//! types `R`; the edge set into
//!
//! * `H` — undirected *wordlength edges* `{o, r}`, meaning resource type `r`
//!   can execute operation `o`.  Initially these are exactly the
//!   [`covers`](mwl_model::ResourceType::covers) pairs; the allocator later
//!   deletes edges to refine wordlength (and therefore latency) information.
//! * `C` — directed *compatibility edges* `(o1, o2)`, meaning `o1` is
//!   scheduled to complete before `o2` starts.  `C` is a transitive
//!   orientation of the comparability subgraph `G'(O, C)`, so a maximum
//!   clique of time-compatible operations is a longest chain, found by a
//!   dynamic program over the `k` candidate operations in start-time order
//!   in `O(k²)` time.
//!
//! [`WordlengthCompatibilityGraph`] owns the `H` edges, the per-resource
//! latency/area quantities derived from a [`CostModel`], and (once a schedule
//! is attached) the `C` edges.  It provides the queries the `DPAlloc`
//! heuristic needs: latency upper bounds `L_o`, `O(r)`, `S(o)`, maximum
//! chains of uncovered operations, and wordlength-refinement edge deletion.
//!
//! The `H` adjacency is a pair of dense `u64` bitsets — one row per
//! operation, one column per resource, each the transpose of the other —
//! and the latency upper bounds `L_o`, the per-resource edge counts and
//! each operation's fastest latency are cached, so an edge deletion
//! ([`refine_op`](WordlengthCompatibilityGraph::refine_op)) clears two
//! bits and decrements one count per edge, and the allocator's inner loop
//! reads `O(r)`, `L_o`, `|O(r)|` and refinability without rebuilding
//! tables or counting bits.  The bitsets are the
//! only set representation: an ascending bit scan yields the same sorted
//! order a sorted index list would, so every list-shaped query
//! ([`resources_for`](WordlengthCompatibilityGraph::resources_for),
//! [`ops_for`](WordlengthCompatibilityGraph::ops_for)) is a scan.
//!
//! [`attach_schedule`](WordlengthCompatibilityGraph::attach_schedule) sorts
//! the operations by start and by end once, and builds the `C` edges by
//! sweeping a growing prefix of the end order and a growing suffix of the
//! start order instead of making `|O|²` interval comparisons.  It also
//! renumbers every `O(r)` column `BindSelect` scans by *end rank* (position
//! in the end order), so the length of a maximum chain is an earliest-end
//! greedy over bitsets
//! ([`max_chain_len`](WordlengthCompatibilityGraph::max_chain_len)): each
//! step takes the lowest set bit and ANDs in the mask of operations that
//! start at or after its end.  Every buffer is reused across attach calls.
//!
//! *Pipeline position:* built first from the raw graph, then iteratively
//! refined by the `DPAlloc` loop (`mwl_core`) — Sections 2.1–2.2 of the
//! paper.  See `docs/ARCHITECTURE.md` for the full map.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;

use mwl_model::{
    extract_resource_types_into, Area, CostModel, Cycles, OpId, OperandWidths, ResourceType,
    SequencingGraph,
};
use mwl_sched::{OpLatencies, Schedule};

/// Index of a resource-wordlength type within the graph's resource list.
pub type ResourceIndex = usize;

const WORD_BITS: usize = u64::BITS as usize;

#[inline]
fn words_for(bits: usize) -> usize {
    bits.div_ceil(WORD_BITS)
}

#[inline]
fn bit_is_set(words: &[u64], bit: usize) -> bool {
    words[bit / WORD_BITS] >> (bit % WORD_BITS) & 1 == 1
}

#[inline]
fn set_bit(words: &mut [u64], bit: usize) {
    words[bit / WORD_BITS] |= 1 << (bit % WORD_BITS);
}

#[inline]
fn clear_bit(words: &mut [u64], bit: usize) {
    words[bit / WORD_BITS] &= !(1 << (bit % WORD_BITS));
}

/// Ascending indices of the set bits of a bitset.
fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                w * WORD_BITS + b
            })
        })
    })
}

/// Reusable buffers for
/// [`WordlengthCompatibilityGraph::max_chain_into`]: the candidate list and
/// the longest-chain dynamic-programming tables.
#[derive(Debug, Default)]
pub struct ChainScratch {
    candidates: Vec<OpId>,
    best: Vec<u32>,
    prev: Vec<u32>,
}

/// The wordlength compatibility graph.
///
/// # Examples
///
/// ```
/// use mwl_model::{OpShape, SequencingGraphBuilder, SonicCostModel};
/// use mwl_wcg::WordlengthCompatibilityGraph;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = SequencingGraphBuilder::new();
/// let small = b.add_operation(OpShape::multiplier(8, 8));
/// let large = b.add_operation(OpShape::multiplier(16, 16));
/// let g = b.build()?;
///
/// let wcg = WordlengthCompatibilityGraph::new(&g, &SonicCostModel::default());
/// // The small multiplication can run on the 8x8, 16x8 or 16x16 type...
/// assert_eq!(wcg.resources_for(small).len(), 3);
/// // ...so its latency upper bound is the latency of the 16x16 type.
/// assert_eq!(wcg.upper_bound_latency(small), 4);
/// assert_eq!(wcg.upper_bound_latency(large), 4);
/// # Ok(())
/// # }
/// ```
//
// Deliberately NOT Serialize/Deserialize: the struct carries redundant
// internal state (the transposed bitset planes and the cached upper bounds)
// that a hand-crafted deserialized value could silently violate.  Rebuild
// from the graph and cost model instead — construction is cheap and
// canonical.
#[derive(Debug, Clone, Default)]
pub struct WordlengthCompatibilityGraph {
    /// Candidate resource-wordlength types (the vertex subset `R`).
    resources: Vec<ResourceType>,
    /// Buffers of the resource-set extraction, reused by every rebuild.
    widths: OperandWidths,
    /// Latency of each resource type under the cost model.
    latencies: Vec<Cycles>,
    /// Area of each resource type under the cost model.
    areas: Vec<Area>,
    /// Cached latency upper bound `L_o` per operation (meaningless — and
    /// never read — for an operation whose last edge was deleted).  Its
    /// length is the operation count.
    upper: Vec<Cycles>,
    /// Fastest candidate latency per operation (0 for an operation with no
    /// edge), fixed at rebuild: `refine_op` deletes only edges at `L_o`,
    /// and only while a faster one survives.
    fastest: Vec<Cycles>,
    /// `|O(r)|` per resource, kept in step by `refine_op`.
    edge_counts: Vec<u32>,
    /// Schedule-derived start/end intervals used for the `C` edges
    /// (operation `o1` precedes `o2` iff `end(o1) <= start(o2)`).  The
    /// buffer is retained across attach/detach cycles.
    intervals: Vec<(Cycles, Cycles)>,
    /// Whether `intervals` currently holds an attached schedule.
    scheduled: bool,
    /// Words per op row in `op_rows` (`ceil(|R| / 64)`).
    res_words: usize,
    /// Words per resource column in `resource_cols` and per op row in
    /// `compat` (`ceil(|O| / 64)`).
    op_words: usize,
    /// `H` adjacency per operation: bit `r` of row `o` is set iff the edge
    /// `{o, r}` is present.  Flat, stride `res_words`.
    op_rows: Vec<u64>,
    /// `H` adjacency per resource (the transpose of `op_rows`): bit `o` of
    /// column `r` is set iff `{o, r}` is present.  Flat, stride `op_words`.
    resource_cols: Vec<u64>,
    /// Undirected time-compatibility masks (the symmetric closure of the `C`
    /// edges): bit `j` of row `i` is set iff the execution intervals of `i`
    /// and `j` are disjoint.  Flat, stride `op_words`; valid only while a
    /// schedule is attached.
    compat: Vec<u64>,
    /// All operations sorted by `(start, end, id)` under the attached
    /// schedule — the shared candidate order of every chain DP.
    start_order: Vec<OpId>,
    /// All operations sorted by `(end, start, id)` under the attached
    /// schedule; an operation's position here is its *end rank*.
    end_order: Vec<OpId>,
    /// End rank per operation (the inverse of `end_order`).
    end_rank: Vec<u32>,
    /// `H` adjacency per resource in end-rank space: bit `end_rank[o]` of
    /// column `r` is set iff `{o, r}` is present.  Flat, stride `op_words`;
    /// valid only while a schedule is attached.
    rank_cols: Vec<u64>,
    /// Per end rank `q`, in end-rank space: the operations that start at or
    /// after the end of `end_order[q]`, i.e. those that may follow it in a
    /// chain.  Flat, stride `op_words`; valid only while a schedule is
    /// attached.
    follow: Vec<u64>,
    /// The running masks of the attach sweep: one operation-space and one
    /// end-rank-space mask, `op_words` each.
    sweep: Vec<u64>,
    /// Unrefined copy of `upper`, captured by
    /// [`snapshot_pristine`](Self::snapshot_pristine).
    pristine_upper: Vec<Cycles>,
    /// Unrefined copy of `op_rows`.
    pristine_op_rows: Vec<u64>,
    /// Unrefined copy of `resource_cols`.
    pristine_resource_cols: Vec<u64>,
    /// Unrefined copy of `edge_counts`.
    pristine_edge_counts: Vec<u32>,
    /// Whether the pristine buffers hold a snapshot of the current problem.
    pristine_valid: bool,
    /// The resource types `BindSelect` scans, ascending: every type after a
    /// rebuild, the undominated ones after
    /// [`prune_bind_candidates`](Self::prune_bind_candidates).
    bind_candidates: Vec<ResourceIndex>,
}

impl WordlengthCompatibilityGraph {
    /// Builds the initial graph for a sequencing graph under a cost model:
    /// the resource set is extracted from the operations and every `{o, r}`
    /// pair with `r.covers(o)` becomes an `H` edge.  No `C` edges exist until
    /// [`attach_schedule`](Self::attach_schedule) is called.
    #[must_use]
    pub fn new(graph: &SequencingGraph, cost: &dyn CostModel) -> Self {
        let mut wcg = Self::default();
        wcg.rebuild(graph, cost);
        wcg
    }

    /// Builds the graph with an explicitly supplied resource set.
    #[must_use]
    pub fn with_resources(
        graph: &SequencingGraph,
        resources: Vec<ResourceType>,
        cost: &dyn CostModel,
    ) -> Self {
        let mut wcg = Self {
            resources,
            ..Self::default()
        };
        wcg.rebuild_edges(graph, cost);
        wcg
    }

    /// Re-initialises this graph for a (possibly different) sequencing graph,
    /// reusing every buffer; the result is indistinguishable from
    /// [`new`](Self::new)'s.  The resource set is extracted into buffers the
    /// graph keeps ([`extract_resource_types_into`]), so rebuilding for a
    /// graph no larger than one already seen allocates nothing.  The
    /// allocator calls this once per job, on its scratch's graph; a
    /// resource-bound escalation restores the
    /// [`snapshot_pristine`](Self::snapshot_pristine) copy instead.
    pub fn rebuild(&mut self, graph: &SequencingGraph, cost: &dyn CostModel) {
        extract_resource_types_into(graph.operations(), &mut self.widths, &mut self.resources);
        self.rebuild_edges(graph, cost);
    }

    /// Derives every table but the resource set from `self.resources`.
    fn rebuild_edges(&mut self, graph: &SequencingGraph, cost: &dyn CostModel) {
        let num_resources = self.resources.len();
        self.latencies.clear();
        self.latencies
            .extend(self.resources.iter().map(|r| cost.latency(r)));
        self.areas.clear();
        self.areas
            .extend(self.resources.iter().map(|r| cost.area(r)));

        let n = graph.len();
        self.upper.clear();
        self.upper.resize(n, 0);
        self.fastest.clear();
        self.fastest.resize(n, 0);
        self.edge_counts.clear();
        self.edge_counts.resize(num_resources, 0);
        self.res_words = words_for(num_resources);
        self.op_words = words_for(n);
        self.op_rows.clear();
        self.op_rows.resize(n * self.res_words, 0);
        self.resource_cols.clear();
        self.resource_cols.resize(num_resources * self.op_words, 0);
        for (i, op) in graph.operations().iter().enumerate() {
            let shape = op.shape();
            let (mut fastest, mut slowest) = (Cycles::MAX, 0);
            for j in 0..num_resources {
                if self.resources[j].covers(shape) {
                    set_bit(&mut self.op_rows[i * self.res_words..], j);
                    set_bit(&mut self.resource_cols[j * self.op_words..], i);
                    self.edge_counts[j] += 1;
                    fastest = fastest.min(self.latencies[j]);
                    slowest = slowest.max(self.latencies[j]);
                }
            }
            self.upper[i] = slowest;
            // 0 for an operation with no edge, as `slowest` is.
            self.fastest[i] = fastest.min(slowest);
        }
        self.intervals.clear();
        self.scheduled = false;
        self.pristine_valid = false;
        self.bind_candidates.clear();
        self.bind_candidates.extend(0..num_resources);
    }

    /// Captures the current — typically just-rebuilt, unrefined — `H`
    /// tables so a later [`restore_pristine`](Self::restore_pristine) can
    /// undo every refinement deletion without re-deriving the graph.  The
    /// allocator snapshots once per job and restores per resource-bound
    /// escalation: restoring is four flat copies, where a full
    /// [`rebuild`](Self::rebuild) re-extracts the resource set and
    /// re-queries the cost model.
    pub fn snapshot_pristine(&mut self) {
        self.pristine_upper.clone_from(&self.upper);
        self.pristine_op_rows.clone_from(&self.op_rows);
        self.pristine_resource_cols.clone_from(&self.resource_cols);
        self.pristine_edge_counts.clone_from(&self.edge_counts);
        self.pristine_valid = true;
    }

    /// Restores the tables captured by
    /// [`snapshot_pristine`](Self::snapshot_pristine) and detaches any
    /// schedule — observably identical to a fresh
    /// [`rebuild`](Self::rebuild) with the same graph and cost model.
    ///
    /// # Panics
    ///
    /// Panics if no snapshot was taken since the last rebuild.
    pub fn restore_pristine(&mut self) {
        assert!(
            self.pristine_valid,
            "restore_pristine without a snapshot of the current problem"
        );
        self.upper.clone_from(&self.pristine_upper);
        self.op_rows.clone_from(&self.pristine_op_rows);
        self.resource_cols.clone_from(&self.pristine_resource_cols);
        self.edge_counts.clone_from(&self.pristine_edge_counts);
        self.intervals.clear();
        self.scheduled = false;
    }

    /// Narrows [`bind_candidates`](Self::bind_candidates) to the resource
    /// types that can win a `BindSelect` covering round for some `H` the
    /// snapshot reaches: [`restore_pristine`](Self::restore_pristine)
    /// followed by any [`refine_op`](Self::refine_op) sequence.
    ///
    /// Type `q` *dominates* `r` when `O(q) ⊇ O(r)`, `lat_q ≤ lat_r` and
    /// `(area_q, q) < (area_r, r)` (areas counted as at least 1, as
    /// `BindSelect` reads them).  A type is kept unless its snapshot column
    /// is empty or a kept type dominates it.  Types are visited in
    /// `(area, index)` order and checked only against the types already
    /// kept: dominance is transitive, so a type dominated by a dropped one
    /// is dominated by that one's kept dominator.  Dropping is exact:
    ///
    /// 1. *Persistence.*  `refine_op(o)` deletes exactly `o`'s edges at its
    ///    bound `L_o`.  If it deletes `{o, q}` and `{o, r}` exists, then
    ///    `lat_r ≤ L_o = lat_q ≤ lat_r`, so it deletes `{o, r}` too.  Hence
    ///    `O(r) ⊆ O(q)` holds for every reachable `H`, and an empty column
    ///    stays empty.
    /// 2. *Never better.*  Chain lengths read only the schedule's
    ///    intervals, so for every uncovered mask `len_q ≥ len_r`, and with
    ///    `area_q ≤ area_r` the ratio `len_q / area_q` is at least
    ///    `len_r / area_r`.  `BindSelect`'s comparator — the ratio, compared
    ///    exactly, then longer chain, then the lower index, which its
    ///    ascending scan favours — is a strict total order.  It puts `q`
    ///    above `r`: if ratio and length tie, so do the areas, and then
    ///    `q < r`.  The scan returns its maximum, and removing a type that a
    ///    present type outranks cannot change it.
    ///
    /// The round winner is therefore unchanged, and so is the
    /// uncoverable-operation report: a non-empty column keeps a dominator
    /// in the set.  [`attach_schedule`](Self::attach_schedule) renumbers
    /// only the kept columns into end-rank space.
    ///
    /// # Panics
    ///
    /// Panics if no snapshot was taken since the last rebuild.
    pub fn prune_bind_candidates(&mut self) {
        assert!(
            self.pristine_valid,
            "prune_bind_candidates without a snapshot of the current problem"
        );
        let Self {
            bind_candidates: kept,
            areas,
            latencies,
            pristine_resource_cols: cols,
            op_words: words,
            ..
        } = self;
        let words = *words;
        kept.clear();
        kept.extend(0..areas.len());
        kept.sort_unstable_by_key(|&r| (areas[r].max(1), r));
        let col = |r: usize| &cols[r * words..][..words];
        let mut len = 0;
        for i in 0..kept.len() {
            let r = kept[i];
            let dominated = col(r).iter().all(|&w| w == 0)
                || kept[..len].iter().any(|&q| {
                    latencies[q] <= latencies[r]
                        && col(r).iter().zip(col(q)).all(|(&a, &b)| a & !b == 0)
                });
            if !dominated {
                kept[len] = r;
                len += 1;
            }
        }
        kept.truncate(len);
        kept.sort_unstable();
    }

    /// The resource types `BindSelect` scans, ascending: every type of a
    /// freshly built graph, narrowed by
    /// [`prune_bind_candidates`](Self::prune_bind_candidates).
    #[must_use]
    pub fn bind_candidates(&self) -> &[ResourceIndex] {
        &self.bind_candidates
    }

    /// Words per operation-set mask (`ceil(|O| / 64)`) — the stride callers
    /// of [`mask_covered_by`](Self::mask_covered_by) and
    /// [`mask_is_chain`](Self::mask_is_chain) must use, and the stride of
    /// [`resource_columns`](Self::resource_columns).
    #[must_use]
    #[inline]
    pub fn op_mask_words(&self) -> usize {
        self.op_words
    }

    /// Number of operations `|O|`.
    #[must_use]
    pub fn num_ops(&self) -> usize {
        self.upper.len()
    }

    /// The resource-wordlength types `R`.
    #[must_use]
    pub fn resources(&self) -> &[ResourceType] {
        &self.resources
    }

    /// One resource type by index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    #[must_use]
    pub fn resource(&self, index: ResourceIndex) -> &ResourceType {
        &self.resources[index]
    }

    /// Latency of a resource type under the construction cost model.
    #[must_use]
    pub fn resource_latency(&self, index: ResourceIndex) -> Cycles {
        self.latencies[index]
    }

    /// Area of a resource type under the construction cost model.
    #[must_use]
    pub fn resource_area(&self, index: ResourceIndex) -> Area {
        self.areas[index]
    }

    #[inline]
    fn op_row(&self, op: usize) -> &[u64] {
        &self.op_rows[op * self.res_words..][..self.res_words]
    }

    #[inline]
    fn resource_col(&self, resource: ResourceIndex) -> &[u64] {
        &self.resource_cols[resource * self.op_words..][..self.op_words]
    }

    /// The resource indices compatible with an operation (the `H`-neighbours
    /// of `o`, i.e. the candidates from which `S(o)` is drawn), ascending,
    /// as an allocation-free bit scan.
    pub fn candidates(&self, op: OpId) -> impl Iterator<Item = ResourceIndex> + '_ {
        set_bits(self.op_row(op.index()))
    }

    /// The resource indices compatible with an operation, ascending.
    #[must_use]
    pub fn resources_for(&self, op: OpId) -> Vec<ResourceIndex> {
        self.candidates(op).collect()
    }

    /// Returns `true` if the `H` edge `{o, r}` is present.
    #[must_use]
    #[inline]
    pub fn has_edge(&self, op: OpId, resource: ResourceIndex) -> bool {
        bit_is_set(self.op_row(op.index()), resource)
    }

    /// The operations compatible with a resource type (`O(r)`), ascending.
    #[must_use]
    pub fn ops_for(&self, resource: ResourceIndex) -> Vec<OpId> {
        set_bits(self.resource_col(resource))
            .map(|o| OpId::new(o as u32))
            .collect()
    }

    /// Every `O(r)` column as one flat bitset in resource order, stride
    /// [`op_mask_words`](Self::op_mask_words): bit `o` of column `r` is set
    /// iff `{o, r}` is present — the set-cover input of
    /// [`mwl_sched::scheduling_set_with_scratch`].
    #[must_use]
    #[inline]
    pub fn resource_columns(&self) -> &[u64] {
        &self.resource_cols
    }

    /// Number of `H` edges incident to one resource (`|O(r)|`), a count
    /// [`refine_op`](Self::refine_op) keeps in step — the quantity behind
    /// the refinement rule's deletion proportion.
    #[must_use]
    #[inline]
    pub fn resource_edge_count(&self, resource: ResourceIndex) -> usize {
        self.edge_counts[resource] as usize
    }

    /// Total number of `H` edges.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.op_rows.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Latency upper bound `L_o`: the latency of the slowest resource the
    /// operation is still compatible with.
    ///
    /// # Panics
    ///
    /// Panics if every `H` edge of the operation has been deleted; the
    /// allocator never removes the last edge of an operation.
    #[must_use]
    #[inline]
    pub fn upper_bound_latency(&self, op: OpId) -> Cycles {
        assert!(
            self.op_row(op.index()).iter().any(|&w| w != 0),
            "operation retains at least one compatible resource"
        );
        self.upper[op.index()]
    }

    /// Latency upper bounds for all operations, in a form directly usable by
    /// the schedulers.
    #[must_use]
    pub fn upper_bound_latencies(&self) -> OpLatencies {
        (0..self.num_ops())
            .map(|i| self.upper_bound_latency(OpId::new(i as u32)))
            .collect()
    }

    /// Borrowed view of the cached upper bounds `L_o`, indexed by operation.
    /// Entries of operations whose last edge was deleted are meaningless;
    /// the allocator guarantees that never happens.
    #[must_use]
    #[inline]
    pub fn upper_bound_slice(&self) -> &[Cycles] {
        &self.upper
    }

    /// Re-derives the cached upper bound of one operation after its edge row
    /// changed.
    fn refresh_upper(&mut self, op: usize) {
        let upper = set_bits(self.op_row(op))
            .map(|r| self.latencies[r])
            .max()
            .unwrap_or(0);
        self.upper[op] = upper;
    }

    /// Deletes every `H` edge `{op, r}` whose resource latency equals the
    /// operation's current upper bound `L_o` — the paper's wordlength
    /// refinement step.  The deletion is skipped (returning 0) when it would
    /// leave the operation with no compatible resource, i.e. when every
    /// remaining candidate sits at the bound latency (the "single distinct
    /// latency" case); otherwise a faster edge survives, so the deletion can
    /// never strand the operation.
    ///
    /// Returns the number of edges removed.
    pub fn refine_op(&mut self, op: OpId) -> usize {
        let bound = self.upper_bound_latency(op);
        if !self.refinable(op) {
            return 0;
        }
        let i = op.index();
        let mut removed = 0;
        for w in 0..self.res_words {
            let word = &mut self.op_rows[i * self.res_words + w];
            let slow = set_bits(&[*word])
                .filter(|&b| self.latencies[w * WORD_BITS + b] == bound)
                .fold(0u64, |acc, b| acc | 1 << b);
            *word &= !slow;
            for b in set_bits(&[slow]) {
                let r = w * WORD_BITS + b;
                self.edge_counts[r] -= 1;
                let col = r * self.op_words;
                clear_bit(&mut self.resource_cols[col..], i);
                if self.scheduled {
                    clear_bit(&mut self.rank_cols[col..], self.end_rank[i] as usize);
                }
            }
            removed += slow.count_ones() as usize;
        }
        self.refresh_upper(i);
        removed
    }

    /// Returns `true` if the operation still has more than one distinct
    /// candidate latency, i.e. refinement could still lower its upper bound.
    /// Refinement never deletes an operation's fastest edge, so this is its
    /// fastest latency at rebuild against its current `L_o`.
    #[must_use]
    #[inline]
    pub fn refinable(&self, op: OpId) -> bool {
        self.fastest[op.index()] < self.upper[op.index()]
    }

    /// Attaches schedule information, creating the `C` edges: `(o1, o2) ∈ C`
    /// iff `o1` completes no later than `o2` starts under the given start
    /// times and latency table.
    ///
    /// The edges come from two sorted sweeps instead of `|O|²` interval
    /// comparisons.  Operation `i` is time-compatible with the operations
    /// that end by its start — a prefix of the end order, which only grows
    /// along the start order — and with those that start at or after its
    /// end — a suffix of the start order, which only grows along the
    /// reversed end order.  The second sweep also records each end rank's
    /// followers for [`max_chain_len`](Self::max_chain_len), and the `O(r)`
    /// columns of the [`bind_candidates`](Self::bind_candidates) are
    /// renumbered into end-rank space in `O(|H|)`.  Every buffer
    /// is reused, so repeated attach/detach cycles in the allocator loop are
    /// allocation-free.
    pub fn attach_schedule(&mut self, schedule: &Schedule, latencies: &OpLatencies) {
        let n = self.num_ops();
        let words = self.op_words;
        let Self {
            intervals,
            start_order,
            end_order,
            end_rank,
            rank_cols,
            follow,
            sweep,
            compat,
            resource_cols,
            resources,
            bind_candidates,
            ..
        } = self;
        intervals.clear();
        intervals.extend((0..n).map(|i| {
            let op = OpId::new(i as u32);
            (schedule.start(op), schedule.end(op, latencies))
        }));
        let intervals = &*intervals;
        start_order.clear();
        start_order.extend((0..n).map(|i| OpId::new(i as u32)));
        start_order.sort_unstable_by_key(|o| (intervals[o.index()], *o));
        // A stable sort by end keeps the `(start, id)` order among ties.
        end_order.clone_from(start_order);
        end_order.sort_by_key(|o| intervals[o.index()].1);
        end_rank.clear();
        end_rank.resize(n, 0);
        for (q, o) in end_order.iter().enumerate() {
            end_rank[o.index()] = q as u32;
        }

        compat.clear();
        compat.resize(n * words, 0);
        follow.clear();
        follow.resize(n * words, 0);
        sweep.clear();
        sweep.resize(2 * words, 0);
        let (ops, ranks) = sweep.split_at_mut(words);
        // Predecessors: the operations ending by each start, in start order.
        let mut ended = end_order.iter().peekable();
        for o in start_order.iter() {
            let start = intervals[o.index()].0;
            while let Some(p) = ended.next_if(|p| intervals[p.index()].1 <= start) {
                set_bit(ops, p.index());
            }
            compat[o.index() * words..][..words].copy_from_slice(ops);
        }
        // Successors: the operations starting at or after each end, in
        // reversed end order.
        ops.fill(0);
        let mut started = start_order.iter().rev().peekable();
        for (q, o) in end_order.iter().enumerate().rev() {
            let end = intervals[o.index()].1;
            while let Some(p) = started.next_if(|p| intervals[p.index()].0 >= end) {
                set_bit(ops, p.index());
                set_bit(ranks, end_rank[p.index()] as usize);
            }
            let row = &mut compat[o.index() * words..][..words];
            for (slot, &w) in row.iter_mut().zip(ops.iter()) {
                *slot |= w;
            }
            // A zero-length interval ends where it starts and would list
            // itself.
            clear_bit(row, o.index());
            follow[q * words..][..words].copy_from_slice(ranks);
        }

        rank_cols.clear();
        rank_cols.resize(resources.len() * words, 0);
        for &r in bind_candidates.iter() {
            let out = &mut rank_cols[r * words..][..words];
            for (w, &word) in resource_cols[r * words..][..words].iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let q = end_rank[w * WORD_BITS + bits.trailing_zeros() as usize] as usize;
                    out[q / WORD_BITS] |= 1 << (q % WORD_BITS);
                    bits &= bits - 1;
                }
            }
        }
        self.scheduled = true;
    }

    /// Removes the `C` edges (used when the allocator reschedules).
    pub fn detach_schedule(&mut self) {
        self.scheduled = false;
    }

    /// Returns `true` if a schedule has been attached.
    #[must_use]
    pub fn has_schedule(&self) -> bool {
        self.scheduled
    }

    fn intervals(&self, context: &str) -> &[(Cycles, Cycles)] {
        assert!(
            self.scheduled,
            "attach_schedule must be called before {context}"
        );
        &self.intervals
    }

    /// Returns `true` if the directed compatibility edge `(o1, o2)` exists:
    /// `o1` completes before (or exactly when) `o2` starts.
    ///
    /// # Panics
    ///
    /// Panics if no schedule is attached.
    #[must_use]
    pub fn compatible(&self, o1: OpId, o2: OpId) -> bool {
        let intervals = self.intervals("compatibility queries");
        intervals[o1.index()].1 <= intervals[o2.index()].0
    }

    /// Returns `true` if the given operations are pairwise time-compatible,
    /// i.e. they form a clique of the comparability graph `G'(O, C)` and can
    /// therefore share one resource.
    ///
    /// # Panics
    ///
    /// Panics if no schedule is attached.
    #[must_use]
    pub fn is_chain(&self, ops: &[OpId]) -> bool {
        // A set of operations is a chain iff every pair is time-compatible
        // (pairwise-disjoint intervals can always be ordered by start time),
        // so the query reduces to probes of the `compat` masks — no sort, no
        // allocation.
        let _ = self.intervals("compatibility queries");
        ops.iter().enumerate().all(|(idx, &a)| {
            let row = &self.compat[a.index() * self.op_words..];
            ops[idx + 1..].iter().all(|&b| bit_is_set(row, b.index()))
        })
    }

    /// Returns `true` if every operation in the mask (stride
    /// [`op_mask_words`](Self::op_mask_words)) is `H`-compatible with the
    /// given resource — the word-parallel form of the clique-growth cover
    /// check (`mask ∧ ¬O(r) = ∅`).
    #[must_use]
    #[inline]
    pub fn mask_covered_by(&self, mask: &[u64], resource: ResourceIndex) -> bool {
        let col = self.resource_col(resource);
        mask.iter().zip(col).all(|(&m, &c)| m & !c == 0)
    }

    /// Number of operations in the mask (stride
    /// [`op_mask_words`](Self::op_mask_words)) that are `H`-compatible with
    /// the given resource: `popcount(mask ∧ O(r))`.  An upper bound on the
    /// length of any chain of masked operations on `resource`, which lets
    /// `BindSelect` skip resources that cannot beat the incumbent ratio
    /// without running the chain DP.
    #[must_use]
    #[inline]
    pub fn mask_candidate_count(&self, mask: &[u64], resource: ResourceIndex) -> usize {
        let col = self.resource_col(resource);
        mask.iter()
            .zip(col)
            .map(|(&m, &c)| (m & c).count_ones() as usize)
            .sum()
    }

    /// Returns `true` if the operations in the mask (stride
    /// [`op_mask_words`](Self::op_mask_words)) are pairwise time-compatible:
    /// for every member `i`, the mask minus `i` must sit inside `i`'s
    /// compatibility row.
    ///
    /// # Panics
    ///
    /// Panics if no schedule is attached.
    #[must_use]
    pub fn mask_is_chain(&self, mask: &[u64]) -> bool {
        let _ = self.intervals("compatibility queries");
        for (w, &word) in mask.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let row = &self.compat[(w * WORD_BITS + b) * self.op_words..][..self.op_words];
                for (v, (&m, &c)) in mask.iter().zip(row).enumerate() {
                    let mut others = m & !c;
                    if v == w {
                        others &= !(1u64 << b);
                    }
                    if others != 0 {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// End rank of an operation under the attached schedule: its position
    /// in the `(end, start, id)` order — the bit that stands for it in the
    /// mask [`max_chain_len`](Self::max_chain_len) reads.
    ///
    /// # Panics
    ///
    /// Panics if no schedule is attached.
    #[must_use]
    #[inline]
    pub fn end_rank(&self, op: OpId) -> usize {
        let _ = self.intervals("end_rank");
        self.end_rank[op.index()] as usize
    }

    /// Length of a maximum clique of *uncovered* operations within `O(r)` —
    /// the length of the chain [`max_chain_into`](Self::max_chain_into)
    /// returns, without building it.  `uncovered` is indexed by
    /// [`end_rank`](Self::end_rank), stride
    /// [`op_mask_words`](Self::op_mask_words).  A resource outside
    /// [`bind_candidates`](Self::bind_candidates) reads an empty column.
    ///
    /// An earliest-end greedy counts the maximum number of pairwise-disjoint
    /// intervals exactly: take the uncovered candidate with the lowest end
    /// rank, keep only the candidates that start at or after its end, and
    /// repeat.  Each step is a lowest-set-bit and a mask AND; a whole query
    /// is `O(words + length)`.
    ///
    /// # Panics
    ///
    /// Panics if no schedule is attached.
    #[must_use]
    pub fn max_chain_len(&self, resource: ResourceIndex, uncovered: &[u64]) -> usize {
        let _ = self.intervals("max_chain_len");
        let words = self.op_words;
        let col = &self.rank_cols[resource * words..][..words];
        let mut len = 0;
        // Operations that may follow the last pick.  The masks shrink as the
        // picks' ends grow, so the latest one stands for all of them.
        let mut after: Option<&[u64]> = None;
        for w in 0..words {
            let mut m = uncovered[w] & col[w] & after.map_or(u64::MAX, |f| f[w]);
            while m != 0 {
                let b = m.trailing_zeros() as usize;
                len += 1;
                let f = &self.follow[(w * WORD_BITS + b) * words..][..words];
                after = Some(f);
                // Drop the pick itself too: a zero-length interval starts at
                // its own end.
                m &= f[w] & !(u64::MAX >> (63 - b));
            }
        }
        len
    }

    /// Finds a maximum clique of *uncovered* operations within `O(r)` and
    /// writes it into a reusable buffer — the allocation-free form
    /// `BindSelect` runs once per covering round, for the winning resource.
    ///
    /// Because `C` is a transitive orientation, a clique is a chain of
    /// operations whose execution intervals do not overlap; the maximum one
    /// is found by dynamic programming over operations sorted by start time.
    /// The chain is written in execution order (possibly empty).
    ///
    /// # Panics
    ///
    /// Panics if no schedule is attached.
    pub fn max_chain_into(
        &self,
        resource: ResourceIndex,
        covered: &[bool],
        scratch: &mut ChainScratch,
        chain: &mut Vec<OpId>,
    ) {
        chain.clear();
        let intervals = self.intervals("max_chain");
        let ChainScratch {
            candidates,
            best,
            prev,
        } = scratch;
        candidates.clear();
        // `start_order` is already sorted by the total key `(start, end,
        // id)`, so filtering it by the resource-column bit yields the
        // uncovered part of `O(r)` in that order.
        let col = self.resource_col(resource);
        candidates.extend(
            self.start_order
                .iter()
                .copied()
                .filter(|o| !covered[o.index()] && bit_is_set(col, o.index())),
        );
        let k = candidates.len();
        if k == 0 {
            return;
        }
        // best[i]: length of the longest chain ending at candidate i.
        best.clear();
        best.resize(k, 1);
        prev.clear();
        prev.resize(k, u32::MAX);
        for i in 0..k {
            for j in 0..i {
                let end_j = intervals[candidates[j].index()].1;
                let start_i = intervals[candidates[i].index()].0;
                if end_j <= start_i && best[j] + 1 > best[i] {
                    best[i] = best[j] + 1;
                    prev[i] = j as u32;
                }
            }
        }
        let mut tail = (0..k).max_by_key(|&i| best[i]).expect("k > 0");
        chain.push(candidates[tail]);
        while prev[tail] != u32::MAX {
            tail = prev[tail] as usize;
            chain.push(candidates[tail]);
        }
        chain.reverse();
    }

    /// Candidate lists in the shape expected by
    /// [`mwl_sched::scheduling_set`]: entry `i` lists the resource indices
    /// compatible with operation `i`.
    #[must_use]
    pub fn op_candidate_lists(&self) -> Vec<Vec<ResourceIndex>> {
        (0..self.num_ops())
            .map(|i| self.resources_for(OpId::new(i as u32)))
            .collect()
    }
}

impl fmt::Display for WordlengthCompatibilityGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "wordlength compatibility graph: {} operations, {} resource types, {} H edges",
            self.num_ops(),
            self.resources.len(),
            self.num_edges()
        )?;
        for (i, r) in self.resources.iter().enumerate() {
            let ops: Vec<String> = self.ops_for(i).iter().map(ToString::to_string).collect();
            writeln!(
                f,
                "  r{i}: {r} (latency {}, area {}) <- [{}]",
                self.latencies[i],
                self.areas[i],
                ops.join(", ")
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwl_model::{OpShape, SequencingGraphBuilder, SonicCostModel};
    use mwl_sched::{asap, OpLatencies};

    /// The chain `max_chain_into` finds, in a fresh buffer.
    fn max_chain(
        wcg: &WordlengthCompatibilityGraph,
        resource: ResourceIndex,
        covered: &[bool],
    ) -> Vec<OpId> {
        let mut chain = Vec::new();
        wcg.max_chain_into(resource, covered, &mut ChainScratch::default(), &mut chain);
        chain
    }

    /// The uncovered mask in end-rank space for a covered map.
    fn uncovered_ranks(wcg: &WordlengthCompatibilityGraph, covered: &[bool]) -> Vec<u64> {
        let mut mask = vec![0u64; wcg.op_mask_words()];
        for (i, _) in covered.iter().enumerate().filter(|(_, &c)| !c) {
            set_bit(&mut mask, wcg.end_rank(OpId::new(i as u32)));
        }
        mask
    }

    /// Two small and one large multiplication plus an adder.
    fn sample() -> (SequencingGraph, WordlengthCompatibilityGraph) {
        let mut b = SequencingGraphBuilder::new();
        let m_small = b.add_operation(OpShape::multiplier(8, 8));
        let m_mid = b.add_operation(OpShape::multiplier(12, 10));
        let m_big = b.add_operation(OpShape::multiplier(16, 16));
        let a = b.add_operation(OpShape::adder(20));
        b.add_dependency(m_small, a).unwrap();
        b.add_dependency(m_mid, a).unwrap();
        b.add_dependency(m_big, a).unwrap();
        let g = b.build().unwrap();
        let wcg = WordlengthCompatibilityGraph::new(&g, &SonicCostModel::default());
        (g, wcg)
    }

    #[test]
    fn construction_creates_cover_edges() {
        let (g, wcg) = sample();
        assert_eq!(wcg.num_ops(), g.len());
        // Every op has at least one edge; the big multiplier covers all muls.
        for op in g.op_ids() {
            assert!(!wcg.resources_for(op).is_empty());
        }
        let big_idx = wcg
            .resources()
            .iter()
            .position(|r| *r == ResourceType::multiplier(16, 16))
            .unwrap();
        assert_eq!(wcg.ops_for(big_idx).len(), 3);
        // The adder type covers only the adder op.
        let adder_idx = wcg
            .resources()
            .iter()
            .position(|r| *r == ResourceType::adder(20))
            .unwrap();
        assert_eq!(wcg.ops_for(adder_idx), vec![OpId::new(3)]);
    }

    #[test]
    fn resource_costs_cached() {
        let (_, wcg) = sample();
        let model = SonicCostModel::default();
        for (i, r) in wcg.resources().iter().enumerate() {
            assert_eq!(wcg.resource_latency(i), model.latency(r));
            assert_eq!(wcg.resource_area(i), model.area(r));
            assert_eq!(wcg.resource(i), r);
        }
    }

    #[test]
    fn upper_bounds_use_slowest_compatible_resource() {
        let (_, wcg) = sample();
        // The 8x8 multiplication may be executed on the 16x16 multiplier:
        // upper bound = ceil(32/8) = 4 rather than its native 2.
        assert_eq!(wcg.upper_bound_latency(OpId::new(0)), 4);
        assert_eq!(wcg.upper_bound_latency(OpId::new(2)), 4);
        assert_eq!(wcg.upper_bound_latency(OpId::new(3)), 2);
        let all = wcg.upper_bound_latencies();
        assert_eq!(all.get(OpId::new(0)), 4);
        assert_eq!(wcg.upper_bound_slice(), all.as_slice());
    }

    #[test]
    fn refine_op_deletes_slowest_edges() {
        let (_, mut wcg) = sample();
        let op = OpId::new(0);
        let before = wcg.resources_for(op).len();
        assert!(wcg.refinable(op));
        let removed = wcg.refine_op(op);
        assert!(removed > 0);
        assert_eq!(wcg.resources_for(op).len(), before - removed);
        assert!(wcg.upper_bound_latency(op) < 4);
    }

    #[test]
    fn refine_op_never_strands_an_operation() {
        let (_, mut wcg) = sample();
        let op = OpId::new(0);
        // Refine until no longer possible.
        let mut guard = 0;
        while wcg.refinable(op) {
            assert!(wcg.refine_op(op) > 0);
            guard += 1;
            assert!(guard < 100, "refinement must terminate");
        }
        assert!(!wcg.resources_for(op).is_empty());
        assert_eq!(wcg.refine_op(op), 0);
        // The remaining candidates all have the native (minimum) latency.
        assert_eq!(wcg.upper_bound_latency(op), 2);
    }

    #[test]
    fn rows_and_columns_stay_transposed_through_deletions() {
        let (g, mut wcg) = sample();
        // Delete a few edges, then cross-check both adjacency directions and
        // the cached quantities against first-principles recomputation.
        assert!(wcg.refine_op(OpId::new(0)) > 0);
        assert!(wcg.refine_op(OpId::new(1)) > 0);
        let words = wcg.op_mask_words();
        for r in 0..wcg.resources().len() {
            let scan: Vec<OpId> = g.op_ids().filter(|&o| wcg.has_edge(o, r)).collect();
            assert_eq!(wcg.ops_for(r), scan);
            assert_eq!(wcg.resource_edge_count(r), scan.len());
            let column = &wcg.resource_columns()[r * words..][..words];
            for op in g.op_ids() {
                let bit = column[op.index() / 64] >> (op.index() % 64) & 1 == 1;
                assert_eq!(bit, scan.contains(&op));
            }
        }
        for op in g.op_ids() {
            let row = wcg.resources_for(op);
            assert_eq!(wcg.candidates(op).collect::<Vec<_>>(), row);
            if !row.is_empty() {
                let max = row.iter().map(|&r| wcg.resource_latency(r)).max().unwrap();
                assert_eq!(wcg.upper_bound_latency(op), max);
            }
        }
    }

    #[test]
    fn compatibility_follows_schedule() {
        let (g, mut wcg) = sample();
        let lat = wcg.upper_bound_latencies();
        let schedule = asap(&g, &lat);
        assert!(!wcg.has_schedule());
        wcg.attach_schedule(&schedule, &lat);
        assert!(wcg.has_schedule());
        // The three multiplications start together (incompatible); each is
        // compatible with the adder that consumes them.
        assert!(!wcg.compatible(OpId::new(0), OpId::new(1)));
        assert!(wcg.compatible(OpId::new(0), OpId::new(3)));
        assert!(wcg.compatible(OpId::new(2), OpId::new(3)));
        assert!(!wcg.compatible(OpId::new(3), OpId::new(0)));
        assert!(wcg.is_chain(&[OpId::new(0), OpId::new(3)]));
        assert!(!wcg.is_chain(&[OpId::new(0), OpId::new(1)]));
        wcg.detach_schedule();
        assert!(!wcg.has_schedule());
    }

    #[test]
    fn max_chain_finds_longest_sequential_run() {
        // A chain of three 8x8 muls plus one parallel mul: the longest chain
        // on the shared multiplier type has length 3.
        let mut b = SequencingGraphBuilder::new();
        let x = b.add_operation(OpShape::multiplier(8, 8));
        let y = b.add_operation(OpShape::multiplier(8, 8));
        let z = b.add_operation(OpShape::multiplier(8, 8));
        let w = b.add_operation(OpShape::multiplier(8, 8));
        b.add_dependency(x, y).unwrap();
        b.add_dependency(y, z).unwrap();
        let g = b.build().unwrap();
        let mut wcg = WordlengthCompatibilityGraph::new(&g, &SonicCostModel::default());
        let lat = wcg.upper_bound_latencies();
        let schedule = asap(&g, &lat);
        wcg.attach_schedule(&schedule, &lat);
        let chain = max_chain(&wcg, 0, &[false; 4]);
        assert_eq!(chain, vec![x, y, z]);
        // Covered operations are skipped.
        let mut covered = vec![false; 4];
        covered[y.index()] = true;
        let chain = max_chain(&wcg, 0, &covered);
        assert_eq!(chain.len(), 2);
        assert!(!chain.contains(&y));
        let _ = w;
    }

    #[test]
    fn zero_length_intervals_chain_and_never_self_compatible() {
        // `attach_schedule` does not validate latencies, so zero-length
        // intervals reach the kernels: several share a time point, one sits
        // at the end of a longer interval, and two lie inside one.
        let mut b = SequencingGraphBuilder::new();
        for _ in 0..7 {
            b.add_operation(OpShape::multiplier(8, 8));
        }
        let g = b.build().unwrap();
        let mut wcg = WordlengthCompatibilityGraph::new(&g, &SonicCostModel::default());
        let lat = OpLatencies::from_vec(vec![0, 2, 0, 0, 3, 0, 0]);
        let schedule = mwl_sched::Schedule::from_vec(vec![0, 0, 2, 2, 2, 5, 3]);
        wcg.attach_schedule(&schedule, &lat);
        for op in g.op_ids() {
            assert!(!wcg.is_chain(&[op, op]), "{op} compatible with itself");
            let mut mask = vec![0u64; wcg.op_mask_words()];
            set_bit(&mut mask, op.index());
            assert!(wcg.mask_is_chain(&mask));
        }
        for r in 0..wcg.resources().len() {
            for seed in 0u32..(1 << 7) {
                let covered: Vec<bool> = (0..7).map(|i| seed >> i & 1 == 1).collect();
                let chain = max_chain(&wcg, r, &covered);
                assert!(wcg.is_chain(&chain));
                let len = wcg.max_chain_len(r, &uncovered_ranks(&wcg, &covered));
                assert_eq!(len, chain.len(), "resource {r}, covered {covered:?}");
            }
        }
        // Ops 0, 2, 3, 5 are points and 1, 4 cover [0, 2) and [2, 5): all
        // six chain; op 6 at 3 lies inside op 4.
        assert_eq!(max_chain(&wcg, 0, &[false; 7]).len(), 6);
    }

    #[test]
    fn max_chain_empty_when_all_covered() {
        let (g, mut wcg) = sample();
        let lat = wcg.upper_bound_latencies();
        let schedule = asap(&g, &lat);
        wcg.attach_schedule(&schedule, &lat);
        let covered = vec![true; g.len()];
        assert!(max_chain(&wcg, 0, &covered).is_empty());
        assert_eq!(wcg.max_chain_len(0, &uncovered_ranks(&wcg, &covered)), 0);
    }

    #[test]
    fn candidate_lists_shape() {
        let (g, wcg) = sample();
        let lists = wcg.op_candidate_lists();
        assert_eq!(lists.len(), g.len());
        for (i, list) in lists.iter().enumerate() {
            assert_eq!(list, &wcg.resources_for(OpId::new(i as u32)));
        }
    }

    #[test]
    fn display_mentions_every_resource() {
        let (_, wcg) = sample();
        let s = wcg.to_string();
        for r in wcg.resources() {
            assert!(s.contains(&r.to_string()));
        }
    }

    #[test]
    fn mask_kernels_match_slice_kernels() {
        let (g, mut wcg) = sample();
        let lat = wcg.upper_bound_latencies();
        let schedule = asap(&g, &lat);
        wcg.attach_schedule(&schedule, &lat);
        let words = wcg.op_mask_words();
        let sets: Vec<Vec<OpId>> = vec![
            vec![OpId::new(0)],
            vec![OpId::new(0), OpId::new(3)],
            vec![OpId::new(0), OpId::new(1)],
            vec![OpId::new(0), OpId::new(1), OpId::new(2), OpId::new(3)],
        ];
        for ops in &sets {
            let mut mask = vec![0u64; words];
            for o in ops {
                mask[o.index() / 64] |= 1 << (o.index() % 64);
            }
            assert_eq!(wcg.mask_is_chain(&mask), wcg.is_chain(ops));
            for r in 0..wcg.resources().len() {
                assert_eq!(
                    wcg.mask_covered_by(&mask, r),
                    ops.iter().all(|&o| wcg.has_edge(o, r))
                );
            }
        }
        assert!(wcg.mask_is_chain(&vec![0u64; words]));
    }

    #[test]
    fn schedule_attachment_uses_supplied_latencies() {
        let (g, mut wcg) = sample();
        // With native latencies the multiplications end earlier, changing
        // compatibility with the adder.
        let model = SonicCostModel::default();
        let native = OpLatencies::from_fn(&g, |op| model.native_latency(op.shape()));
        let schedule = asap(&g, &native);
        wcg.attach_schedule(&schedule, &native);
        assert!(wcg.compatible(OpId::new(0), OpId::new(3)));
    }
}

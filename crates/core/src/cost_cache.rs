//! A shared, read-only cost cache for batch allocation.
//!
//! [`CostModel`] implementations are required to be deterministic, so their
//! answers can be computed once and shared.  [`CachedCostModel`] wraps any
//! `Sync` cost model and serves `area`/`latency` queries from a pre-computed
//! table, falling back to the wrapped model on a miss.  Because the table is
//! built *before* allocation starts and never mutated afterwards, the cache
//! is freely shareable across threads without locks — this is the shared
//! resource-cost cache used by the `mwl_driver` batch engine, where every
//! worker thread allocates against the same `&CachedCostModel`.
//!
//! The table is dense, indexed by (class, width_a, width_b): adders by
//! width, `a×b` multipliers (`a ≥ b`) by the triangular index
//! `a(a−1)/2 + b − 1`, each class's row sized to the widest type warmed.
//! A lookup is an index computation and a bounds check.  An empty cell has
//! latency 0, which the [`CostModel`] contract rules out for a real entry.
//! Types wider than [`MAX_SIM_WORDLENGTH`] bits are never stored: they fall
//! through to the wrapped model like any type that was not warmed.
//!
//! # Examples
//!
//! ```
//! use mwl_core::{AllocConfig, CachedCostModel, DpAllocator};
//! use mwl_model::{CostModel, OpShape, ResourceType, SequencingGraphBuilder, SonicCostModel};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = SequencingGraphBuilder::new();
//! let x = b.add_operation(OpShape::multiplier(8, 8));
//! let y = b.add_operation(OpShape::multiplier(14, 10));
//! let s = b.add_operation(OpShape::adder(24));
//! b.add_dependency(x, s)?;
//! b.add_dependency(y, s)?;
//! let graph = b.build()?;
//!
//! let inner = SonicCostModel::default();
//! let mut cache = CachedCostModel::new(&inner);
//! cache.warm_graph(&graph);
//!
//! // The cache answers exactly like the wrapped model...
//! assert_eq!(
//!     cache.area(&ResourceType::multiplier(14, 10)),
//!     inner.area(&ResourceType::multiplier(14, 10)),
//! );
//! // ...and drives the allocator unchanged.
//! let datapath = DpAllocator::new(&cache, AllocConfig::new(12)).allocate(&graph)?;
//! datapath.validate(&graph, &inner)?;
//! assert!(cache.hits() > 0);
//! # Ok(())
//! # }
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

use mwl_model::fixedpoint::MAX_SIM_WORDLENGTH;
use mwl_model::{
    Area, CostModel, Cycles, OperandWidths, ResourceClass, ResourceType, SequencingGraph,
    StorageCosts,
};

/// A pre-computed area/latency entry; latency 0 marks an empty cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CostEntry {
    area: Area,
    latency: Cycles,
}

impl CostEntry {
    const EMPTY: CostEntry = CostEntry {
        area: 0,
        latency: 0,
    };
}

/// The cell of a type within its class's row, or `None` when the type is
/// wider than [`MAX_SIM_WORDLENGTH`] or not built by the `ResourceType`
/// constructors (a zero width, an adder with two widths, a multiplier with
/// `a < b`).
#[inline]
fn cell(resource: &ResourceType) -> Option<usize> {
    let (a, b) = resource.widths();
    if b == 0 || a > MAX_SIM_WORDLENGTH {
        return None;
    }
    let (a, b) = (a as usize, b as usize);
    match resource.class() {
        ResourceClass::Adder => (a == b).then(|| a - 1),
        ResourceClass::Multiplier => (b <= a).then(|| a * (a - 1) / 2 + b - 1),
    }
}

/// The bit of a width in a `u64` width set; widths outside
/// `1..=MAX_SIM_WORDLENGTH` have none.
#[inline]
fn width_bit(width: u32) -> u64 {
    if (1..=MAX_SIM_WORDLENGTH).contains(&width) {
        1 << (width - 1)
    } else {
        0
    }
}

/// The widths in a `u64` width set, ascending.
fn widths_in(mut set: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        (set != 0).then(|| {
            let width = set.trailing_zeros() + 1;
            set &= set - 1;
            width
        })
    })
}

/// The dense table: one row of cells per resource class.
#[derive(Debug, Default)]
struct CostTable {
    rows: [Vec<CostEntry>; ResourceClass::COUNT],
    /// Cells holding an entry.
    len: usize,
}

impl CostTable {
    #[inline]
    fn get(&self, resource: &ResourceType) -> Option<CostEntry> {
        let entry = *self.rows[resource.class().index()].get(cell(resource)?)?;
        (entry.latency != 0).then_some(entry)
    }

    /// Stores the type's costs, asking `inner` only when the cell is empty.
    fn warm(&mut self, inner: &dyn CostModel, resource: ResourceType) {
        let Some(i) = cell(&resource) else { return };
        let row = &mut self.rows[resource.class().index()];
        if row.len() <= i {
            row.resize(i + 1, CostEntry::EMPTY);
        }
        if row[i].latency == 0 {
            row[i] = CostEntry {
                area: inner.area(&resource),
                latency: inner.latency(&resource),
            };
            if row[i].latency != 0 {
                self.len += 1;
            }
        }
    }
}

/// A read-only memoisation layer over another [`CostModel`].
///
/// Construct with [`new`](CachedCostModel::new), populate with
/// [`warm_graph`](CachedCostModel::warm_graph) /
/// [`warm_types`](CachedCostModel::warm_types), then share immutably —
/// the cache is `Sync` whenever the wrapped model is, and lookups never
/// take a lock.  Queries for types that were not warmed, or are wider than
/// [`MAX_SIM_WORDLENGTH`], fall through to the wrapped model (and are
/// counted as [`misses`](CachedCostModel::misses), not cached, so the
/// shared table stays immutable).
#[derive(Debug)]
pub struct CachedCostModel<'a> {
    inner: &'a (dyn CostModel + Sync),
    table: CostTable,
    /// [`warm_graph`](Self::warm_graph)'s width analysis, reused per graph.
    widths: OperandWidths,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<'a> CachedCostModel<'a> {
    /// Creates an empty cache over the given model.
    #[must_use]
    pub fn new(inner: &'a (dyn CostModel + Sync)) -> Self {
        CachedCostModel {
            inner,
            table: CostTable::default(),
            widths: OperandWidths::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Pre-computes costs for the given resource types; types wider than
    /// [`MAX_SIM_WORDLENGTH`] are skipped.
    pub fn warm_types(&mut self, types: impl IntoIterator<Item = ResourceType>) {
        for r in types {
            self.table.warm(self.inner, r);
        }
    }

    /// Pre-computes costs for every resource type the allocator can touch
    /// while solving the given graph.
    ///
    /// This covers the graph's own candidate types
    /// ([`SequencingGraph::extract_resource_types`]) *and* the closure of
    /// those types under component-wise maximum, which the post-bind merging
    /// pass ([`crate::merge`]) can synthesise.  The closure is computed as
    /// the per-class grid of the candidates' operand widths, which contains
    /// every reachable component-wise join.  The widths come straight from
    /// the operations through reused buffers, so once they have grown a warm
    /// allocates only when the table widens, and the wrapped model is asked
    /// only about cells still empty.
    pub fn warm_graph(&mut self, graph: &SequencingGraph) {
        self.widths.analyse(graph.operations());
        for &w in self.widths.adders() {
            self.table.warm(self.inner, ResourceType::adder(w));
        }
        let (mut primary, mut secondary) = (0u64, 0u64);
        self.widths.for_each_multiplier(|a, b| {
            primary |= width_bit(a);
            secondary |= width_bit(b);
        });
        for a in widths_in(primary) {
            for b in widths_in(secondary) {
                self.table.warm(self.inner, ResourceType::multiplier(a, b));
            }
        }
    }

    /// Number of pre-computed entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.table.len
    }

    /// Whether the cache holds no entries yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.table.len == 0
    }

    /// Whether a cost for the given type is pre-computed.
    #[must_use]
    pub fn contains(&self, resource: &ResourceType) -> bool {
        self.table.get(resource).is_some()
    }

    /// Number of queries served from the table so far.
    ///
    /// The counters are monotone `Relaxed` fetch-adds: they impose no
    /// ordering on the lock-free lookup path, and per-thread tallies may
    /// interleave arbitrarily — only the totals are meaningful.
    #[must_use]
    #[inline]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of queries that fell through to the wrapped model so far.
    /// `Relaxed`, like [`hits`](Self::hits).
    #[must_use]
    #[inline]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// The per-lookup hot path: one indexed table read plus a relaxed
    /// counter bump, no locks.
    #[inline]
    fn lookup(&self, resource: &ResourceType) -> Option<CostEntry> {
        let entry = self.table.get(resource);
        let counter = if entry.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        entry
    }
}

impl CostModel for CachedCostModel<'_> {
    #[inline]
    fn area(&self, resource: &ResourceType) -> Area {
        match self.lookup(resource) {
            Some(e) => e.area,
            None => self.inner.area(resource),
        }
    }

    #[inline]
    fn latency(&self, resource: &ResourceType) -> Cycles {
        match self.lookup(resource) {
            Some(e) => e.latency,
            None => self.inner.latency(resource),
        }
    }

    // Forwarded verbatim rather than memoised: a wrapped model may override
    // the trait's defaults (latency of the smallest cover, free storage), and
    // the cache must answer exactly like the model it wraps.
    #[inline]
    fn native_latency(&self, shape: mwl_model::OpShape) -> Cycles {
        self.inner.native_latency(shape)
    }

    #[inline]
    fn storage_costs(&self) -> StorageCosts {
        self.inner.storage_costs()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use super::*;
    use crate::{AllocConfig, AllocOutcome, Datapath, DpAllocator};
    use mwl_model::{OpShape, SequencingGraphBuilder, SonicCostModel};
    use mwl_tgff::{TgffConfig, TgffGenerator};

    fn sample() -> SequencingGraph {
        let mut b = SequencingGraphBuilder::new();
        let m1 = b.add_operation(OpShape::multiplier(8, 8));
        let m2 = b.add_operation(OpShape::multiplier(16, 12));
        let a = b.add_operation(OpShape::adder(24));
        b.add_dependency(m1, a).unwrap();
        b.add_dependency(m2, a).unwrap();
        b.build().unwrap()
    }

    /// The ordered-map cache the dense table replaced: every type of
    /// `extract_resource_types` plus the full grid of the candidates'
    /// multiplier widths, at any width, behind hit/miss counters.
    #[derive(Debug)]
    struct OrderedMapCache<'a> {
        inner: &'a dyn CostModel,
        table: BTreeMap<ResourceType, CostEntry>,
        hits: AtomicU64,
        misses: AtomicU64,
    }

    impl<'a> OrderedMapCache<'a> {
        fn new(inner: &'a dyn CostModel) -> Self {
            OrderedMapCache {
                inner,
                table: BTreeMap::new(),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
            }
        }

        fn warm_types(&mut self, types: impl IntoIterator<Item = ResourceType>) {
            for r in types {
                let entry = CostEntry {
                    area: self.inner.area(&r),
                    latency: self.inner.latency(&r),
                };
                self.table.insert(r, entry);
            }
        }

        fn warm_graph(&mut self, graph: &SequencingGraph) {
            let base = graph.extract_resource_types();
            let mut mul_a = BTreeSet::new();
            let mut mul_b = BTreeSet::new();
            for r in &base {
                if r.class() == ResourceClass::Multiplier {
                    mul_a.insert(r.widths().0);
                    mul_b.insert(r.widths().1);
                }
            }
            self.warm_types(base);
            let grid: Vec<ResourceType> = mul_a
                .iter()
                .flat_map(|&a| mul_b.iter().map(move |&b| ResourceType::multiplier(a, b)))
                .collect();
            self.warm_types(grid);
        }

        fn entry(&self, resource: &ResourceType) -> Option<CostEntry> {
            let entry = self.table.get(resource).copied();
            let counter = if entry.is_some() {
                &self.hits
            } else {
                &self.misses
            };
            counter.fetch_add(1, Ordering::Relaxed);
            entry
        }
    }

    impl CostModel for OrderedMapCache<'_> {
        fn area(&self, resource: &ResourceType) -> Area {
            self.entry(resource)
                .map_or_else(|| self.inner.area(resource), |e| e.area)
        }

        fn latency(&self, resource: &ResourceType) -> Cycles {
            self.entry(resource)
                .map_or_else(|| self.inner.latency(resource), |e| e.latency)
        }

        fn native_latency(&self, shape: OpShape) -> Cycles {
            self.inner.native_latency(shape)
        }
    }

    /// The dense cache holds exactly the ordered map's entries up to the
    /// ceiling, with the same costs, and none above it.
    fn assert_same_entries(dense: &CachedCostModel<'_>, map: &OrderedMapCache<'_>, what: &str) {
        let storable = |r: &ResourceType| r.widths().0 <= MAX_SIM_WORDLENGTH;
        assert_eq!(
            dense.len(),
            map.table.keys().filter(|r| storable(r)).count(),
            "{what}: len"
        );
        for (r, entry) in &map.table {
            assert_eq!(dense.contains(r), storable(r), "{what}: contains {r}");
            assert_eq!(dense.area(r), entry.area, "{what}: area of {r}");
            assert_eq!(dense.latency(r), entry.latency, "{what}: latency of {r}");
        }
    }

    #[test]
    fn dense_grid_matches_the_ordered_map_across_the_ceiling() {
        let inner = SonicCostModel::default();
        for max_width in 1..=70 {
            let grid = || {
                (1..=max_width).map(ResourceType::adder).chain(
                    (1..=max_width)
                        .flat_map(|a| (1..=max_width).map(move |b| ResourceType::multiplier(a, b))),
                )
            };
            let mut dense = CachedCostModel::new(&inner);
            dense.warm_types(grid());
            let mut map = OrderedMapCache::new(&inner);
            map.warm_types(grid());
            assert_same_entries(&dense, &map, &format!("grid {max_width}"));
        }
    }

    #[test]
    fn warm_graph_matches_the_ordered_map_construction() {
        let inner = SonicCostModel::default();
        // Paper-scale widths, and widths straddling the ceiling: a secondary
        // width that pairs only with a primary above it must still enter
        // the grid with the narrower primaries.
        let mut graphs: Vec<SequencingGraph> = [(4, 24), (40, 80)]
            .into_iter()
            .flat_map(|(lo, hi)| {
                let mut generator =
                    TgffGenerator::new(TgffConfig::with_ops(12).width_range(lo, hi), 909);
                (0..20).map(move |_| generator.generate())
            })
            .collect();
        let mut b = SequencingGraphBuilder::new();
        b.add_operation(OpShape::multiplier(70, 5));
        b.add_operation(OpShape::multiplier(8, 6));
        b.add_operation(OpShape::adder(66));
        graphs.push(b.build().unwrap());

        let mut dense = CachedCostModel::new(&inner);
        let mut map = OrderedMapCache::new(&inner);
        for (i, g) in graphs.iter().enumerate() {
            dense.warm_graph(g);
            map.warm_graph(g);
            assert_same_entries(&dense, &map, &format!("after graph {i}"));
        }
        assert!(dense.contains(&ResourceType::multiplier(8, 5)));
    }

    #[test]
    fn allocation_counts_the_same_hits_and_misses_as_the_ordered_map() {
        let inner = SonicCostModel::default();
        let mut generator = TgffGenerator::new(TgffConfig::with_ops(12), 4711);
        let graphs: Vec<SequencingGraph> = (0..8).map(|_| generator.generate()).collect();
        let mut dense = CachedCostModel::new(&inner);
        let mut map = OrderedMapCache::new(&inner);
        // Warm every other graph only, so the query stream has misses too.
        for g in graphs.iter().step_by(2) {
            dense.warm_graph(g);
            map.warm_graph(g);
        }
        for (i, g) in graphs.iter().enumerate() {
            let native = mwl_sched::OpLatencies::from_fn(g, |op| inner.native_latency(op.shape()));
            let config = AllocConfig::new(mwl_sched::critical_path_length(g, &native) + 3);
            let through_dense = DpAllocator::new(&dense, config.clone()).allocate_with_stats(g);
            let through_map = DpAllocator::new(&map, config).allocate_with_stats(g);
            assert_eq!(through_dense, through_map, "graph {i}");
        }
        assert!(dense.misses() > 0);
        assert_eq!(dense.hits(), map.hits.load(Ordering::Relaxed));
        assert_eq!(dense.misses(), map.misses.load(Ordering::Relaxed));
    }

    #[test]
    fn cache_agrees_with_inner_model() {
        let inner = SonicCostModel::default();
        let g = sample();
        let mut cache = CachedCostModel::new(&inner);
        assert!(cache.is_empty());
        cache.warm_graph(&g);
        assert!(!cache.is_empty());
        for r in g.extract_resource_types() {
            assert!(cache.contains(&r));
            assert_eq!(cache.area(&r), inner.area(&r));
            assert_eq!(cache.latency(&r), inner.latency(&r));
        }
        assert!(cache.hits() >= 2 * g.extract_resource_types().len() as u64);
        assert_eq!(cache.misses(), 0);
    }

    #[test]
    fn miss_falls_through_without_poisoning() {
        let inner = SonicCostModel::default();
        let cache = CachedCostModel::new(&inner);
        let odd = ResourceType::multiplier(31, 29);
        assert_eq!(cache.area(&odd), inner.area(&odd));
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 0);
        assert!(!cache.contains(&odd));
    }

    #[test]
    fn warm_graph_covers_merge_joins() {
        // The merging pass can ask for component-wise maxima of the graph's
        // types; the width grid must contain them.
        let inner = SonicCostModel::default();
        let g = sample();
        let mut cache = CachedCostModel::new(&inner);
        cache.warm_graph(&g);
        let a = ResourceType::multiplier(8, 8);
        let b = ResourceType::multiplier(16, 12);
        let join = a.component_max(&b).unwrap();
        assert!(cache.contains(&join));
    }

    #[test]
    fn allocation_through_cache_is_identical() {
        let inner = SonicCostModel::default();
        let mut generator = TgffGenerator::new(TgffConfig::with_ops(10), 77);
        for i in 0..6 {
            let g = generator.generate();
            let native = mwl_sched::OpLatencies::from_fn(&g, |op| inner.native_latency(op.shape()));
            let lambda = mwl_sched::critical_path_length(&g, &native) + 2 + (i % 3);
            let mut cache = CachedCostModel::new(&inner);
            cache.warm_graph(&g);
            let direct = DpAllocator::new(&inner, AllocConfig::new(lambda))
                .allocate_with_stats(&g)
                .unwrap();
            let cached = DpAllocator::new(&cache, AllocConfig::new(lambda))
                .allocate_with_stats(&g)
                .unwrap();
            assert_eq!(direct, cached);
            cached.datapath.validate(&g, &inner).unwrap();
            assert_eq!(cache.misses(), 0, "warm_graph must cover the allocator");
        }
    }

    /// The merge pass's pruning prechecks probe the cache with synthesised
    /// component-max types (candidate areas, merged-instance latencies for
    /// the λ lower bound).  `warm_graph`'s width grid must cover every such
    /// probe — a silent miss storm here would put the wrapped model back on
    /// the hot path for exactly the queries the pruning multiplied.
    #[test]
    fn merge_pruning_probes_never_miss() {
        let inner = SonicCostModel::default();
        let mut generator = TgffGenerator::new(TgffConfig::with_ops(14), 8086);
        let mut scratch = crate::AllocScratch::new();
        let mut merged_somewhere = 0usize;
        for i in 0..8 {
            let g = generator.generate();
            let native = mwl_sched::OpLatencies::from_fn(&g, |op| inner.native_latency(op.shape()));
            // Loose budgets so the merge pass (and its prechecks) fire often.
            let lambda = mwl_sched::critical_path_length(&g, &native) + 6 + (i % 3) * 6;
            let mut cache = CachedCostModel::new(&inner);
            cache.warm_graph(&g);
            let outcome = DpAllocator::new(&cache, AllocConfig::new(lambda))
                .allocate_with_scratch(&g, &mut scratch)
                .unwrap();
            merged_somewhere += outcome.merges;
            assert_eq!(
                cache.misses(),
                0,
                "graph {i}: merge-pruning probes fell through the cache"
            );
            assert!(cache.hits() > 0);
        }
        assert!(merged_somewhere > 0, "the merge pass never fired");
    }

    #[test]
    fn native_latency_override_is_forwarded() {
        // A model whose fastest implementation is NOT the smallest cover:
        // the cache must report the override, not the trait default.
        #[derive(Debug)]
        struct PipelinedModel;
        impl CostModel for PipelinedModel {
            fn area(&self, resource: &ResourceType) -> mwl_model::Area {
                u64::from(resource.total_width())
            }
            fn latency(&self, _resource: &ResourceType) -> mwl_model::Cycles {
                4
            }
            fn native_latency(&self, _shape: OpShape) -> mwl_model::Cycles {
                1 // pipelined: issue every cycle regardless of width
            }
        }
        let inner = PipelinedModel;
        let mut cache = CachedCostModel::new(&inner);
        cache.warm_graph(&sample());
        let shape = OpShape::multiplier(8, 8);
        assert_eq!(cache.native_latency(shape), inner.native_latency(shape));
        assert_eq!(cache.native_latency(shape), 1);
    }

    #[test]
    fn storage_costs_are_forwarded() {
        let inner = SonicCostModel::default().with_storage_costs(StorageCosts::new(2, 1));
        let cache = CachedCostModel::new(&inner);
        assert_eq!(cache.storage_costs(), StorageCosts::new(2, 1));
    }

    #[test]
    fn batch_building_blocks_are_send_and_sync() {
        // The Send + Sync audit behind the parallel batch driver: everything
        // a worker thread borrows or returns must cross threads safely.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AllocConfig>();
        assert_send_sync::<ResourceType>();
        assert_send_sync::<ResourceClass>();
        assert_send_sync::<SonicCostModel>();
        assert_send_sync::<CachedCostModel<'_>>();
        assert_send_sync::<SequencingGraph>();
        assert_send_sync::<Datapath>();
        assert_send_sync::<AllocOutcome>();
    }
}

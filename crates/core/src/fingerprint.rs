//! Stable content fingerprints for allocation jobs.
//!
//! The allocation service (`mwl_serve`) deduplicates identical jobs through a
//! content-hash cache: two submissions whose (graph, budget, configuration)
//! agree must map to the same key, and the key must be stable across
//! processes and platform word sizes — `std::hash` makes no such promise, so
//! this module hand-rolls a 64-bit FNV-1a hasher with explicit field
//! encodings.
//!
//! Operation *names* are deliberately excluded from [`graph_fingerprint`]:
//! they never influence scheduling, binding or wordlength selection, so two
//! graphs differing only in names produce identical datapaths and may share
//! a cache entry.

use crate::datapath::Datapath;
use crate::dpalloc::{AllocConfig, RefinementPolicy};
use mwl_model::{OpShape, ResourceClass, SequencingGraph};
use mwl_sched::SchedulePriority;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A 64-bit FNV-1a hasher with a platform-independent, field-order-explicit
/// encoding.  Unlike [`std::hash::Hasher`] implementations, its output is a
/// stable function of the written byte sequence — safe to persist or compare
/// across processes.
#[derive(Debug, Clone)]
pub struct StableHasher(u64);

impl StableHasher {
    /// Creates a hasher at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        StableHasher(FNV_OFFSET)
    }

    /// Absorbs raw bytes.
    fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, value: u64) {
        self.write_bytes(&value.to_le_bytes());
    }

    /// Absorbs a `u32` in little-endian byte order.
    pub fn write_u32(&mut self, value: u32) {
        self.write_bytes(&value.to_le_bytes());
    }

    /// Absorbs a boolean as one byte.
    fn write_bool(&mut self, value: bool) {
        self.write_bytes(&[u8::from(value)]);
    }

    /// Absorbs a string as its length followed by its UTF-8 bytes (the
    /// length prefix keeps concatenated strings from colliding).
    pub fn write_str(&mut self, value: &str) {
        self.write_u64(value.len() as u64);
        self.write_bytes(value.as_bytes());
    }

    /// Returns the accumulated hash.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

/// Absorbs an operation shape with an explicit variant tag.
fn write_shape(h: &mut StableHasher, shape: OpShape) {
    match shape {
        OpShape::Additive { kind, width } => {
            h.write_u32(1);
            // Add and Sub share adder resources but are distinct operations.
            h.write_u32(match kind {
                mwl_model::OpKind::Add => 0,
                mwl_model::OpKind::Sub => 1,
                mwl_model::OpKind::Mul => unreachable!("additive shape with Mul kind"),
            });
            h.write_u32(width);
        }
        OpShape::Multiplicative { a, b } => {
            h.write_u32(2);
            h.write_u32(a);
            h.write_u32(b);
        }
    }
}

/// Content hash of a sequencing graph: operation shapes in id order plus the
/// dependence edges.  Names are excluded (they do not affect allocation).
#[must_use]
pub fn graph_fingerprint(graph: &SequencingGraph) -> u64 {
    let mut h = StableHasher::new();
    graph_fingerprint_into(graph, &mut h);
    h.finish()
}

/// Absorbs a graph into an existing hasher (for composing job-level keys).
pub fn graph_fingerprint_into(graph: &SequencingGraph, h: &mut StableHasher) {
    h.write_u64(graph.len() as u64);
    for op in graph.operations() {
        write_shape(h, op.shape());
    }
    h.write_u64(graph.edges().len() as u64);
    for edge in graph.edges() {
        h.write_u64(edge.from.index() as u64);
        h.write_u64(edge.to.index() as u64);
    }
}

/// Content hash of an allocator configuration, covering every field that can
/// change the produced datapath.
#[must_use]
pub fn config_fingerprint(config: &AllocConfig) -> u64 {
    let mut h = StableHasher::new();
    config_fingerprint_into(config, &mut h);
    h.finish()
}

/// Absorbs a configuration into an existing hasher.
pub fn config_fingerprint_into(config: &AllocConfig, h: &mut StableHasher) {
    h.write_u32(config.latency_constraint);
    match &config.resource_bounds {
        None => h.write_u32(0),
        Some(bounds) => {
            h.write_u32(1);
            h.write_u64(bounds.len() as u64);
            // BTreeMap iterates in key order, so the encoding is canonical.
            for (class, bound) in bounds {
                h.write_u32(match class {
                    ResourceClass::Adder => 0,
                    ResourceClass::Multiplier => 1,
                });
                h.write_u64(*bound as u64);
            }
        }
    }
    h.write_u32(match config.priority {
        SchedulePriority::CriticalPath => 0,
        SchedulePriority::InputOrder => 1,
    });
    h.write_bool(config.bind_options.grow_cliques);
    h.write_u32(match config.refinement {
        RefinementPolicy::BoundCriticalPath => 0,
        RefinementPolicy::FirstRefinable => 1,
    });
    h.write_bool(config.instance_merging);
    h.write_u64(config.max_iterations as u64);
    h.write_u64(config.merge_salt);
}

/// Content hash of a produced [`Datapath`]: area, latency, and every
/// instance's resource type with its bound operations and their start steps.
/// Two datapaths with equal fingerprints are the same design for all
/// practical purposes; the portfolio search uses this as the third key of
/// its winner tie-break so the chosen solution is independent of the order
/// in which racing variants finish.
#[must_use]
pub fn datapath_fingerprint(datapath: &Datapath) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(datapath.area());
    h.write_u32(datapath.latency());
    h.write_u64(datapath.instances().len() as u64);
    for inst in datapath.instances() {
        let resource = inst.resource();
        h.write_u32(match resource.class() {
            ResourceClass::Adder => 0,
            ResourceClass::Multiplier => 1,
        });
        let (a, b) = resource.widths();
        h.write_u32(a);
        h.write_u32(b);
        h.write_u64(inst.ops().len() as u64);
        for &op in inst.ops() {
            h.write_u64(op.index() as u64);
            h.write_u32(datapath.schedule().start(op));
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwl_model::{OpShape, SequencingGraphBuilder};
    use std::collections::BTreeMap;

    fn small_graph(width: u32, named: bool) -> SequencingGraph {
        let mut b = SequencingGraphBuilder::new();
        let m = if named {
            b.add_named_operation(OpShape::multiplier(8, 8), "m")
        } else {
            b.add_operation(OpShape::multiplier(8, 8))
        };
        let a = b.add_operation(OpShape::adder(width));
        b.add_dependency(m, a).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn hasher_is_stable_and_order_sensitive() {
        let mut a = StableHasher::new();
        a.write_str("ab");
        let mut b = StableHasher::new();
        b.write_str("ab");
        assert_eq!(a.finish(), b.finish());
        let mut c = StableHasher::new();
        c.write_str("ba");
        assert_ne!(a.finish(), c.finish());
        // The known FNV-1a test vector for the empty input.
        assert_eq!(StableHasher::new().finish(), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn length_prefix_prevents_concatenation_collisions() {
        let mut a = StableHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = StableHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn graph_fingerprint_ignores_names_but_not_structure() {
        assert_eq!(
            graph_fingerprint(&small_graph(16, false)),
            graph_fingerprint(&small_graph(16, true)),
        );
        assert_ne!(
            graph_fingerprint(&small_graph(16, false)),
            graph_fingerprint(&small_graph(17, false)),
        );
        // Same ops, different wiring.
        let mut b = SequencingGraphBuilder::new();
        b.add_operation(OpShape::multiplier(8, 8));
        b.add_operation(OpShape::adder(16));
        let disconnected = b.build().unwrap();
        assert_ne!(
            graph_fingerprint(&small_graph(16, false)),
            graph_fingerprint(&disconnected),
        );
    }

    #[test]
    fn add_and_sub_are_distinct() {
        let mut b = SequencingGraphBuilder::new();
        b.add_operation(OpShape::adder(12));
        let add = b.build().unwrap();
        let mut b = SequencingGraphBuilder::new();
        b.add_operation(OpShape::subtractor(12));
        let sub = b.build().unwrap();
        assert_ne!(graph_fingerprint(&add), graph_fingerprint(&sub));
    }

    #[test]
    fn config_fingerprint_covers_every_field() {
        let base = AllocConfig::new(10);
        let fp = config_fingerprint(&base);
        assert_eq!(fp, config_fingerprint(&AllocConfig::new(10)));
        assert_ne!(fp, config_fingerprint(&AllocConfig::new(11)));
        assert_ne!(
            fp,
            config_fingerprint(&AllocConfig::new(10).with_instance_merging(false))
        );
        assert_ne!(
            fp,
            config_fingerprint(&AllocConfig::new(10).with_clique_growth(false))
        );
        assert_ne!(
            fp,
            config_fingerprint(
                &AllocConfig::new(10).with_refinement(crate::RefinementPolicy::FirstRefinable)
            )
        );
        assert_ne!(
            fp,
            config_fingerprint(&AllocConfig::new(10).with_priority(SchedulePriority::InputOrder))
        );
        let mut bounds = BTreeMap::new();
        bounds.insert(ResourceClass::Adder, 2);
        assert_ne!(
            fp,
            config_fingerprint(&AllocConfig::new(10).with_resource_bounds(bounds))
        );
        let mut budget = AllocConfig::new(10);
        budget.max_iterations = 7;
        assert_ne!(fp, config_fingerprint(&budget));
        let mut salted = AllocConfig::new(10);
        salted.merge_salt = 0xfeed;
        assert_ne!(fp, config_fingerprint(&salted));
    }

    #[test]
    fn datapath_fingerprint_distinguishes_designs() {
        use crate::dpalloc::{AllocConfig, DpAllocator};
        use mwl_model::{CostModel, SonicCostModel};

        let cost = SonicCostModel::default();
        // Two independent multiplications feeding an adder: a tight budget
        // needs two multiplier instances, a loose one shares a single unit.
        let mut b = SequencingGraphBuilder::new();
        let m1 = b.add_operation(OpShape::multiplier(8, 8));
        let m2 = b.add_operation(OpShape::multiplier(16, 12));
        let a = b.add_operation(OpShape::adder(24));
        b.add_dependency(m1, a).unwrap();
        b.add_dependency(m2, a).unwrap();
        let g = b.build().unwrap();
        let native = mwl_sched::OpLatencies::from_fn(&g, |op| cost.native_latency(op.shape()));
        let lmin = mwl_sched::critical_path_length(&g, &native);
        let tight = DpAllocator::new(&cost, AllocConfig::new(lmin))
            .allocate(&g)
            .unwrap();
        let loose = DpAllocator::new(&cost, AllocConfig::new(lmin + 24))
            .allocate(&g)
            .unwrap();
        // Stable across recomputation.
        assert_eq!(datapath_fingerprint(&tight), datapath_fingerprint(&tight));
        // The two budgets give different designs here.
        assert_ne!(tight.area(), loose.area());
        assert_ne!(datapath_fingerprint(&tight), datapath_fingerprint(&loose));
    }
}

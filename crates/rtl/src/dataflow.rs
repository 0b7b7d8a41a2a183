//! Dataflow semantics of a sequencing graph: operand ports, primary inputs
//! and primary outputs.
//!
//! The paper's sequencing graph `P(O, S)` carries *precedence* edges; to give
//! the allocated datapath a bit-true meaning, the backend fixes a dataflow
//! interpretation shared by the reference evaluator (`reference`)
//! and the netlist lowering (`lower`):
//!
//! * Every operation is **binary**: it has exactly two operand ports.  An
//!   additive operation of width `w` has two `w`-bit ports; an `a×b`-bit
//!   multiplication (normalised `a >= b`) has an `a`-bit port 0 and a
//!   `b`-bit port 1.
//! * The operation's predecessors, in ascending [`OpId`] order, feed its
//!   ports in order.  Predecessors beyond the second are **sequencing-only**
//!   edges: they constrain the schedule but carry no data (a two-port
//!   functional unit cannot consume a third operand).
//! * Ports without a producer are **primary inputs** of the datapath.
//! * Operations without successors are **primary outputs**.
//! * An operation's result width is `w` for additive operations and `a + b`
//!   (the full product) for multiplications; producers that are wider or
//!   narrower than a consumer port pass through an explicit width adapter
//!   (sign-extension on widening, two's-complement truncation on narrowing —
//!   see [`mwl_model::fixedpoint::adapt_width`]).

use mwl_model::{OpId, OpShape, SequencingGraph};

/// Where an operand port gets its value from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortSource {
    /// The result value of another operation of the graph.
    Op(OpId),
    /// The primary input with this index (see [`DataflowMap::inputs`]).
    Input(usize),
}

/// One operand port of an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortSpec {
    /// Operand wordlength of the port in bits (the *operation's* width, not
    /// the width of the resource the operation is bound to).
    pub width: u32,
    /// Value source of the port.
    pub source: PortSource,
}

/// A primary input of the datapath: an unfed operand port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InputSpec {
    /// Operation owning the port.
    pub op: OpId,
    /// Port index (0 or 1).
    pub port: usize,
    /// Wordlength of the input in bits.
    pub width: u32,
}

/// The dataflow interpretation of one sequencing graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataflowMap {
    ports: Vec<[PortSpec; 2]>,
    inputs: Vec<InputSpec>,
    outputs: Vec<OpId>,
    out_widths: Vec<u32>,
}

/// Result wordlength of an operation: its own width for additive shapes, the
/// full product width `a + b` for multiplicative ones.
#[must_use]
pub fn output_width(shape: OpShape) -> u32 {
    match shape {
        OpShape::Additive { width, .. } => width,
        OpShape::Multiplicative { a, b } => a + b,
    }
}

impl DataflowMap {
    /// Builds the dataflow interpretation of a graph.
    #[must_use]
    pub fn new(graph: &SequencingGraph) -> Self {
        let mut ports = Vec::with_capacity(graph.len());
        let mut inputs = Vec::new();
        let mut out_widths = Vec::with_capacity(graph.len());
        for op in graph.op_ids() {
            let shape = graph.operation(op).shape();
            let (w0, w1) = shape.widths();
            let preds = graph.predecessors(op);
            let mut spec = [
                PortSpec {
                    width: w0,
                    source: PortSource::Input(usize::MAX),
                },
                PortSpec {
                    width: w1,
                    source: PortSource::Input(usize::MAX),
                },
            ];
            for (port, slot) in spec.iter_mut().enumerate() {
                if let Some(&p) = preds.get(port) {
                    slot.source = PortSource::Op(p);
                } else {
                    let index = inputs.len();
                    inputs.push(InputSpec {
                        op,
                        port,
                        width: slot.width,
                    });
                    slot.source = PortSource::Input(index);
                }
            }
            ports.push(spec);
            out_widths.push(output_width(shape));
        }
        DataflowMap {
            ports,
            inputs,
            outputs: graph.sinks(),
            out_widths,
        }
    }

    /// The two operand ports of an operation.
    #[must_use]
    pub fn ports(&self, op: OpId) -> &[PortSpec; 2] {
        &self.ports[op.index()]
    }

    /// Primary inputs in canonical order (ascending operation id, then port).
    #[must_use]
    pub fn inputs(&self) -> &[InputSpec] {
        &self.inputs
    }

    /// Primary outputs: the sink operations in ascending id order.
    #[must_use]
    pub fn outputs(&self) -> &[OpId] {
        &self.outputs
    }

    /// Result wordlength of an operation.
    #[must_use]
    pub fn result_width(&self, op: OpId) -> u32 {
        self.out_widths[op.index()]
    }

    /// The data predecessors of an operation (its first two predecessors);
    /// any further predecessors are sequencing-only.
    pub fn data_predecessors(&self, op: OpId) -> impl Iterator<Item = OpId> + '_ {
        self.ports[op.index()]
            .iter()
            .filter_map(|p| match p.source {
                PortSource::Op(id) => Some(id),
                PortSource::Input(_) => None,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwl_model::{OpShape, SequencingGraphBuilder};

    /// m0(8x6) and m1(4x4) feed a2 = add[12]; a2 feeds s3 = sub[10].
    fn graph() -> SequencingGraph {
        let mut b = SequencingGraphBuilder::new();
        let m0 = b.add_operation(OpShape::multiplier(8, 6));
        let m1 = b.add_operation(OpShape::multiplier(4, 4));
        let a2 = b.add_operation(OpShape::adder(12));
        let s3 = b.add_operation(OpShape::subtractor(10));
        b.add_dependency(m0, a2).unwrap();
        b.add_dependency(m1, a2).unwrap();
        b.add_dependency(a2, s3).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn ports_and_inputs() {
        let g = graph();
        let map = DataflowMap::new(&g);
        // The multiplications have no predecessors: four primary inputs,
        // plus the subtraction's second port.
        assert_eq!(map.inputs().len(), 5);
        assert_eq!(
            map.inputs()[0],
            InputSpec {
                op: OpId::new(0),
                port: 0,
                width: 8
            }
        );
        assert_eq!(map.inputs()[1].width, 6);
        // Port widths follow the *operation* shape.
        assert_eq!(map.ports(OpId::new(2))[0].width, 12);
        assert_eq!(
            map.ports(OpId::new(2))[0].source,
            PortSource::Op(OpId::new(0))
        );
        assert_eq!(
            map.ports(OpId::new(2))[1].source,
            PortSource::Op(OpId::new(1))
        );
        // The subtraction has one data predecessor and one primary input.
        assert_eq!(
            map.ports(OpId::new(3))[0].source,
            PortSource::Op(OpId::new(2))
        );
        assert!(matches!(
            map.ports(OpId::new(3))[1].source,
            PortSource::Input(_)
        ));
        assert_eq!(
            map.data_predecessors(OpId::new(3)).collect::<Vec<_>>(),
            vec![OpId::new(2)]
        );
    }

    #[test]
    fn result_widths_and_outputs() {
        let g = graph();
        let map = DataflowMap::new(&g);
        assert_eq!(map.result_width(OpId::new(0)), 14); // 8 + 6 full product
        assert_eq!(map.result_width(OpId::new(1)), 8);
        assert_eq!(map.result_width(OpId::new(2)), 12);
        assert_eq!(map.result_width(OpId::new(3)), 10);
        assert_eq!(map.outputs(), &[OpId::new(3)]);
    }

    #[test]
    fn third_predecessor_is_sequencing_only() {
        let mut b = SequencingGraphBuilder::new();
        let x = b.add_operation(OpShape::adder(8));
        let y = b.add_operation(OpShape::adder(8));
        let z = b.add_operation(OpShape::adder(8));
        let s = b.add_operation(OpShape::adder(8));
        b.add_dependency(x, s).unwrap();
        b.add_dependency(y, s).unwrap();
        b.add_dependency(z, s).unwrap();
        let g = b.build().unwrap();
        let map = DataflowMap::new(&g);
        // Only the first two predecessors carry data.
        assert_eq!(
            map.data_predecessors(OpId::new(3)).collect::<Vec<_>>(),
            vec![x, y]
        );
        // z's value is never read: it is still a non-sink operation.
        assert_eq!(map.outputs(), &[s]);
        assert_eq!(map.inputs().len(), 6);
    }
}

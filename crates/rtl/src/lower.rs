//! Lowering an allocated datapath to the structural netlist IR.
//!
//! The lowering consumes the `(SequencingGraph, Datapath)` pair — the
//! allocator's schedule, instances and binding — together with the cost
//! model that the schedule's latencies were computed under, and produces a
//! [`Netlist`]:
//!
//! 1. **Functional units.**  One cell per resource instance at the
//!    *instance's* widths: an operation bound to a wider unit executes at
//!    that unit's wordlength, which is exactly the paper's wordlength
//!    selection.
//! 2. **Registers.**  Every result value is registered at the clock edge
//!    closing its final execution step ([`mwl_core::ValueLifetime::born`]).
//!    Registers are shared: same-width values whose lifetimes do not overlap
//!    are packed onto one register by the certified interval-packing binder
//!    ([`mwl_core::pack_registers`]) over the lifetime intervals from
//!    [`mwl_core::Datapath::value_lifetimes`].  The binder proves its own
//!    optimality — packed register count equals the max-overlap (clique)
//!    lower bound per width class — and the certificate is carried on the
//!    netlist ([`Netlist::binding_certificate`]).
//! 3. **Adapters.**  Each operand passes through at most two explicit width
//!    adapters: producer result width → the *operation's* operand width
//!    (multiple-wordlength semantics: truncate or sign-extend), then the
//!    operation's operand width → the *unit's* port width (always a
//!    sign-extension, because the bound resource covers the operation).
//!    Adapters are deduplicated by `(source, from, to)`.
//! 4. **Muxes & controller.**  Each unit port gets a mux with one arm per
//!    bound operation, selected during the operation's execution interval;
//!    together with the register-write and mode schedules this is the
//!    decoded FSM controller.

use std::collections::BTreeMap;

use mwl_core::{pack_registers, Datapath};
use mwl_model::fixedpoint::MAX_SIM_WORDLENGTH;
use mwl_model::{CostModel, OpKind, ResourceClass, SequencingGraph};

use crate::dataflow::{DataflowMap, PortSource};
use crate::error::RtlError;
use crate::netlist::{
    Adapter, FuActivation, FuMode, FunctionalUnit, InputPort, Mux, MuxArm, Netlist, OutputPort,
    RegWrite, Register, Signal,
};

/// Lowers an allocated datapath into a structural netlist.
///
/// # Errors
///
/// * [`RtlError::InvalidDatapath`] if the datapath fails
///   [`Datapath::validate`] against the graph;
/// * [`RtlError::WidthTooLarge`] if any net would exceed
///   [`MAX_SIM_WORDLENGTH`] bits (multiplier product nets are `a + b` bits
///   wide).
pub fn lower_datapath(
    graph: &SequencingGraph,
    datapath: &Datapath,
    cost: &dyn CostModel,
    module_name: &str,
) -> Result<Netlist, RtlError> {
    datapath.validate(graph, cost)?;
    let map = DataflowMap::new(graph);
    check_widths(graph, datapath, &map)?;

    let bound = datapath.bound_latencies(cost);
    let lifetimes = datapath.value_lifetimes(graph, cost);
    let steps = datapath.schedule().makespan(&bound);

    // --- Functional units, one per instance, at the instance's widths. ---
    let mut fus: Vec<FunctionalUnit> = datapath
        .instances()
        .iter()
        .enumerate()
        .map(|(idx, inst)| {
            let resource = inst.resource();
            let (a, b) = resource.widths();
            let out_width = match resource.class() {
                ResourceClass::Adder => a,
                ResourceClass::Multiplier => a + b,
            };
            let name = match resource.class() {
                ResourceClass::Adder => format!("fu{idx}_add{a}"),
                ResourceClass::Multiplier => format!("fu{idx}_mul{a}x{b}"),
            };
            FunctionalUnit {
                name,
                resource,
                instance: idx,
                a_width: a,
                b_width: b,
                out_width,
                activations: Vec::new(),
            }
        })
        .collect();
    for op in graph.op_ids() {
        let fu = datapath.instance_of(op);
        let start = datapath.schedule().start(op);
        let end = datapath.schedule().end(op, &bound);
        let mode = match graph.operation(op).kind() {
            OpKind::Add => FuMode::Add,
            OpKind::Sub => FuMode::Sub,
            OpKind::Mul => FuMode::Mul,
        };
        fus[fu].activations.push(FuActivation {
            op,
            start,
            end,
            mode,
        });
    }
    for fu in &mut fus {
        fu.activations.sort_by_key(|a| (a.start, a.op));
    }

    // --- Registers: certified interval packing per width class. ---
    let value_widths: Vec<u32> = graph.op_ids().map(|op| map.result_width(op)).collect();
    let binding = pack_registers(&value_widths, &lifetimes);
    let reg_of = &binding.reg_of;
    let mut registers: Vec<Register> = binding
        .widths
        .iter()
        .enumerate()
        .map(|(idx, &width)| Register {
            name: format!("r{idx}_w{width}"),
            width,
            writes: Vec::new(),
        })
        .collect();

    // --- Inputs. ---
    let inputs: Vec<InputPort> = map
        .inputs()
        .iter()
        .enumerate()
        .map(|(i, spec)| InputPort {
            name: format!("in{i}_{}_p{}", spec.op, spec.port),
            width: spec.width,
            op: spec.op,
            port: spec.port,
        })
        .collect();

    // --- Adapters (deduplicated) and operand muxes. ---
    let mut adapters: Vec<Adapter> = Vec::new();
    let mut adapter_index: BTreeMap<(Signal, u32, u32), usize> = BTreeMap::new();
    let mut adapt = |sig: Signal, from: u32, to: u32, adapters: &mut Vec<Adapter>| -> Signal {
        if from == to {
            return sig;
        }
        let key = (sig, from, to);
        if let Some(&idx) = adapter_index.get(&key) {
            return Signal::Adapter(idx);
        }
        let idx = adapters.len();
        adapters.push(Adapter {
            name: format!("ad{idx}_{from}to{to}"),
            source: sig,
            from_width: from,
            to_width: to,
        });
        adapter_index.insert(key, idx);
        Signal::Adapter(idx)
    };

    let mut muxes: Vec<Mux> = fus
        .iter()
        .enumerate()
        .flat_map(|(idx, fu)| {
            [(0usize, fu.a_width), (1usize, fu.b_width)]
                .into_iter()
                .map(move |(port, width)| Mux {
                    name: format!("fu{idx}_op{}", if port == 0 { 'a' } else { 'b' }),
                    fu: idx,
                    port,
                    width,
                    arms: Vec::new(),
                })
        })
        .collect();

    for op in graph.op_ids() {
        let fu = datapath.instance_of(op);
        let start = datapath.schedule().start(op);
        let end = datapath.schedule().end(op, &bound);
        let fu_port_widths = [fus[fu].a_width, fus[fu].b_width];
        for (port, spec) in map.ports(op).iter().enumerate() {
            // Stage 1: bring the source to the operation's operand width
            // (the multiple-wordlength adapter).
            let op_width_sig = match spec.source {
                PortSource::Input(i) => {
                    // Inputs are declared at the operand width already.
                    debug_assert_eq!(inputs[i].width, spec.width);
                    Signal::Input(i)
                }
                PortSource::Op(producer) => {
                    let from = map.result_width(producer);
                    adapt(
                        Signal::Register(reg_of[producer.index()]),
                        from,
                        spec.width,
                        &mut adapters,
                    )
                }
            };
            // Stage 2: sign-extend to the unit's port width (the bound
            // resource covers the operation, so this never narrows).
            let port_width = fu_port_widths[port];
            debug_assert!(port_width >= spec.width, "resource must cover operation");
            let port_sig = adapt(op_width_sig, spec.width, port_width, &mut adapters);
            muxes[fu * 2 + port].arms.push(MuxArm {
                op,
                start,
                end,
                source: port_sig,
            });
        }
    }
    for mux in &mut muxes {
        mux.arms.sort_by_key(|a| (a.start, a.op));
    }

    // --- Register writes: FU output, truncated to the value width. ---
    for op in graph.op_ids() {
        let fu = datapath.instance_of(op);
        let value_width = map.result_width(op);
        let source = adapt(
            Signal::FuOutput(fu),
            fus[fu].out_width,
            value_width,
            &mut adapters,
        );
        let write_step = datapath.schedule().end(op, &bound) - 1;
        registers[reg_of[op.index()]].writes.push(RegWrite {
            step: write_step,
            source,
            op,
        });
    }
    for reg in &mut registers {
        reg.writes.sort_by_key(|w| (w.step, w.op));
        debug_assert!(
            reg.writes.windows(2).all(|w| w[0].step < w[1].step),
            "two values written to one register at the same step"
        );
    }

    // --- Primary outputs: the sink registers. ---
    let outputs: Vec<OutputPort> = map
        .outputs()
        .iter()
        .enumerate()
        .map(|(i, &op)| OutputPort {
            name: format!("out{i}_{op}"),
            width: map.result_width(op),
            op,
            source: Signal::Register(reg_of[op.index()]),
        })
        .collect();

    Ok(Netlist {
        name: module_name.to_string(),
        steps,
        inputs,
        outputs,
        registers,
        fus,
        muxes,
        adapters,
        binding_certificate: binding.certificate,
    })
}

/// Rejects graphs whose nets would exceed the 64-bit simulation limit.
fn check_widths(
    graph: &SequencingGraph,
    datapath: &Datapath,
    map: &DataflowMap,
) -> Result<(), RtlError> {
    for op in graph.op_ids() {
        let value_width = map.result_width(op);
        if value_width > MAX_SIM_WORDLENGTH {
            return Err(RtlError::WidthTooLarge {
                op,
                width: value_width,
            });
        }
        // The bound resource's output net: `A + B` for multipliers.
        let resource = datapath.selected_resource(op);
        let (a, b) = resource.widths();
        let fu_out = match resource.class() {
            ResourceClass::Adder => a,
            ResourceClass::Multiplier => a + b,
        };
        if fu_out > MAX_SIM_WORDLENGTH {
            return Err(RtlError::WidthTooLarge { op, width: fu_out });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwl_core::{AllocConfig, DpAllocator};
    use mwl_model::{OpId, OpShape, SequencingGraphBuilder, SonicCostModel};

    fn chain_graph() -> SequencingGraph {
        let mut b = SequencingGraphBuilder::new();
        let m = b.add_operation(OpShape::multiplier(8, 6));
        let n = b.add_operation(OpShape::multiplier(5, 4));
        let a = b.add_operation(OpShape::adder(14));
        let s = b.add_operation(OpShape::subtractor(12));
        b.add_dependency(m, a).unwrap();
        b.add_dependency(n, a).unwrap();
        b.add_dependency(a, s).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn lowering_produces_one_fu_per_instance() {
        let g = chain_graph();
        let cost = SonicCostModel::default();
        let dp = DpAllocator::new(&cost, AllocConfig::new(40))
            .allocate(&g)
            .unwrap();
        let netlist = lower_datapath(&g, &dp, &cost, "dut").unwrap();
        assert_eq!(netlist.fus.len(), dp.num_instances());
        assert_eq!(netlist.muxes.len(), 2 * dp.num_instances());
        // The netlist's *FU component* equals the datapath's FU-only area
        // (the allocator's objective); the full breakdown adds registers
        // and muxes on top when the model prices them.
        assert_eq!(netlist.area_breakdown(&cost).fu, dp.area());
        assert_eq!(netlist.area_breakdown(&cost), dp.area_breakdown(&g, &cost));
        // Every operation appears exactly once as an activation.
        let total: usize = netlist.fus.iter().map(|f| f.activations.len()).sum();
        assert_eq!(total, g.len());
        // Every operation's operand steering appears once per port.
        let arms: usize = netlist.muxes.iter().map(|m| m.arms.len()).sum();
        assert_eq!(arms, 2 * g.len());
        // The netlist schedule spans the datapath latency.
        assert_eq!(netlist.steps, dp.latency());
        assert_eq!(netlist.outputs.len(), 1);
        assert!(netlist.to_string().contains("netlist dut"));
    }

    #[test]
    fn registers_are_shared_only_between_disjoint_lifetimes() {
        let g = chain_graph();
        let cost = SonicCostModel::default();
        let dp = DpAllocator::new(&cost, AllocConfig::new(40))
            .allocate(&g)
            .unwrap();
        let netlist = lower_datapath(&g, &dp, &cost, "dut").unwrap();
        assert!(netlist.registers.len() <= g.len());
        let lifetimes = dp.value_lifetimes(&g, &cost);
        // Reconstruct the op -> register map from the write schedules and
        // check pairwise disjointness within each register.
        for reg in &netlist.registers {
            for i in 0..reg.writes.len() {
                for j in (i + 1)..reg.writes.len() {
                    let a = lifetimes[reg.writes[i].op.index()];
                    let b = lifetimes[reg.writes[j].op.index()];
                    assert!(
                        !a.overlaps(&b),
                        "register {} shared by overlapping lifetimes",
                        reg.name
                    );
                }
            }
        }
    }

    #[test]
    fn register_packing_is_certified_and_matches_the_core_binder() {
        use mwl_core::{clique_lower_bound, left_edge_registers, BindingCertificate};
        use mwl_model::StorageCosts;

        let g = chain_graph();
        let cost = SonicCostModel::default();
        let dp = DpAllocator::new(&cost, AllocConfig::new(40))
            .allocate(&g)
            .unwrap();
        let netlist = lower_datapath(&g, &dp, &cost, "dut").unwrap();
        assert_eq!(netlist.binding_certificate, BindingCertificate::Optimal);

        // The netlist registers are exactly the core binder's packing.
        let binding = dp.register_binding(&g, &cost);
        assert_eq!(netlist.registers.len(), binding.registers());
        assert_eq!(netlist.stats().register_bits, binding.register_bits());

        // Packed count meets the clique lower bound and never loses to the
        // left-edge fallback oracle.
        let widths = mwl_core::result_widths(&g);
        let lifetimes = dp.value_lifetimes(&g, &cost);
        assert_eq!(
            netlist.registers.len(),
            clique_lower_bound(&widths, &lifetimes)
        );
        let (left_edge, _) = left_edge_registers(&widths, &lifetimes);
        assert!(netlist.registers.len() <= left_edge.len());

        // Under priced storage the netlist-level and datapath-level
        // breakdowns agree component by component.
        let priced = SonicCostModel::default().with_storage_costs(StorageCosts::new(3, 2));
        let nb = netlist.area_breakdown(&priced);
        assert_eq!(nb, dp.area_breakdown(&g, &priced));
        assert_eq!(nb.fu, dp.area());
        assert!(nb.register > 0);
        assert_eq!(nb.total(), nb.fu + nb.register + nb.mux);
    }

    #[test]
    fn result_width_agrees_between_dataflow_and_core_storage() {
        for shape in [
            OpShape::adder(7),
            OpShape::subtractor(13),
            OpShape::multiplier(9, 5),
        ] {
            assert_eq!(
                crate::dataflow::output_width(shape),
                mwl_core::storage::result_width(shape)
            );
        }
    }

    #[test]
    fn oversized_product_width_is_rejected() {
        let mut b = SequencingGraphBuilder::new();
        b.add_operation(OpShape::multiplier(40, 30));
        let g = b.build().unwrap();
        let cost = SonicCostModel::default();
        let dp = DpAllocator::new(&cost, AllocConfig::new(20))
            .allocate(&g)
            .unwrap();
        let err = lower_datapath(&g, &dp, &cost, "dut").unwrap_err();
        assert_eq!(
            err,
            RtlError::WidthTooLarge {
                op: OpId::new(0),
                width: 70
            }
        );
    }

    #[test]
    fn mismatched_datapath_is_rejected() {
        let g = chain_graph();
        let cost = SonicCostModel::default();
        let mut b = SequencingGraphBuilder::new();
        b.add_operation(OpShape::adder(4));
        let other = b.build().unwrap();
        let dp = DpAllocator::new(&cost, AllocConfig::new(20))
            .allocate(&other)
            .unwrap();
        assert!(matches!(
            lower_datapath(&g, &dp, &cost, "dut"),
            Err(RtlError::InvalidDatapath(_))
        ));
    }
}

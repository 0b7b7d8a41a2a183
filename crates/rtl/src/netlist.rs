//! The structural netlist IR: functional units, registers, input muxes,
//! width adapters and the schedule-derived controller.
//!
//! A [`Netlist`] is the RTL-level image of one allocated datapath:
//!
//! * one [`FunctionalUnit`] cell per [`mwl_core::ResourceInstance`], built at
//!   the instance's [`ResourceType`] widths;
//! * one [`Mux`] per functional-unit operand port, steering the operands of
//!   the operations time-multiplexed onto the unit;
//! * [`Register`] cells holding result values while they are live across
//!   control steps (registers are shared between same-width values with
//!   disjoint [`mwl_core::ValueLifetime`]s);
//! * explicit [`Adapter`] cells encoding the multiple-wordlength semantics:
//!   sign-extension on widening, two's-complement truncation on narrowing;
//! * an implicit FSM controller — a step counter `0 .. steps`; every mux
//!   arm, register write and functional-unit activation carries the control
//!   steps during which it is selected, which is exactly the decoded output
//!   of that FSM.
//!
//! The IR is interpreted by the cycle-accurate simulator ([`crate::sim`])
//! and printed by the Verilog-2001 emitter ([`crate::verilog`]).

use std::fmt;

use mwl_core::BindingCertificate;
use mwl_model::{Area, AreaBreakdown, CostModel, Cycles, OpId, ResourceType};

/// A combinational value source inside the netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Signal {
    /// Primary input with this index.
    Input(usize),
    /// Current value of a register.
    Register(usize),
    /// Output of a width adapter.
    Adapter(usize),
    /// Combinational output of a functional unit.
    FuOutput(usize),
}

/// A primary input port: an operand port of the dataflow that no operation
/// feeds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputPort {
    /// Port name, stable across emissions.
    pub name: String,
    /// Width in bits.
    pub width: u32,
    /// The operation whose operand this input feeds.
    pub op: OpId,
    /// The operand port index (0 or 1) at that operation.
    pub port: usize,
}

/// A primary output port: the registered value of a sink operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputPort {
    /// Port name, stable across emissions.
    pub name: String,
    /// Width in bits.
    pub width: u32,
    /// The sink operation observed by this output.
    pub op: OpId,
    /// The signal driving the output (always a register).
    pub source: Signal,
}

/// One synchronous write into a register, decoded from the controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegWrite {
    /// The write happens at the clock edge *closing* this control step.
    pub step: Cycles,
    /// The value written (an adapter over the producing unit's output).
    pub source: Signal,
    /// The operation whose result value this write stores.
    pub op: OpId,
}

/// A result register, possibly shared by several values with disjoint
/// lifetimes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Register {
    /// Cell name, stable across emissions.
    pub name: String,
    /// Width in bits.
    pub width: u32,
    /// Write schedule, ordered by step.
    pub writes: Vec<RegWrite>,
}

/// The arithmetic function a unit computes during one activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuMode {
    /// Two's-complement addition.
    Add,
    /// Two's-complement subtraction (port 0 minus port 1).
    Sub,
    /// Signed multiplication (full product).
    Mul,
}

/// One operation executing on a functional unit during `[start, end)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuActivation {
    /// The operation being executed.
    pub op: OpId,
    /// First control step of the execution interval.
    pub start: Cycles,
    /// One past the last control step (the result is registered at the edge
    /// closing step `end - 1`).
    pub end: Cycles,
    /// Function computed during the activation.
    pub mode: FuMode,
}

/// An allocated functional unit at its bound resource-wordlength.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionalUnit {
    /// Cell name, stable across emissions.
    pub name: String,
    /// The resource-wordlength type the unit implements.
    pub resource: ResourceType,
    /// Index of the corresponding [`mwl_core::ResourceInstance`].
    pub instance: usize,
    /// Width of operand port 0 in bits.
    pub a_width: u32,
    /// Width of operand port 1 in bits.
    pub b_width: u32,
    /// Width of the combinational output in bits (`a + b` for multipliers,
    /// the port width for adders).
    pub out_width: u32,
    /// Activation schedule, ordered by start step.
    pub activations: Vec<FuActivation>,
}

impl FunctionalUnit {
    /// The activation (if any) executing during the given control step.
    #[must_use]
    pub fn active_at(&self, step: Cycles) -> Option<&FuActivation> {
        self.activations
            .iter()
            .find(|a| a.start <= step && step < a.end)
    }
}

/// One steering choice of an operand mux.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MuxArm {
    /// The operation whose operand is steered.
    pub op: OpId,
    /// First control step during which this arm is selected.
    pub start: Cycles,
    /// One past the last selected control step.
    pub end: Cycles,
    /// The signal steered to the functional-unit port.
    pub source: Signal,
}

/// The input mux of one functional-unit operand port.  When no arm is
/// selected (the unit is idle) the port reads zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mux {
    /// Cell name, stable across emissions.
    pub name: String,
    /// The functional unit this mux feeds.
    pub fu: usize,
    /// The operand port (0 or 1) it feeds.
    pub port: usize,
    /// Output width in bits (the functional unit's port width).
    pub width: u32,
    /// Steering schedule, ordered by start step.
    pub arms: Vec<MuxArm>,
}

impl Mux {
    /// The arm (if any) selected during the given control step.
    #[must_use]
    pub fn selected_at(&self, step: Cycles) -> Option<&MuxArm> {
        self.arms.iter().find(|a| a.start <= step && step < a.end)
    }
}

/// An explicit width adapter: sign-extension when `to_width >= from_width`,
/// truncation to the low bits otherwise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Adapter {
    /// Cell name, stable across emissions.
    pub name: String,
    /// The adapted signal.
    pub source: Signal,
    /// Width of the source in bits.
    pub from_width: u32,
    /// Width of the adapter output in bits.
    pub to_width: u32,
}

/// Aggregate cell/bit counts of a netlist, for reporting and for the area
/// cross-check against the datapath's cost-model accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetlistStats {
    /// Control steps of the schedule (FSM states).
    pub steps: Cycles,
    /// Primary inputs.
    pub inputs: usize,
    /// Primary outputs.
    pub outputs: usize,
    /// Functional-unit cells.
    pub fus: usize,
    /// Register cells (after lifetime sharing).
    pub registers: usize,
    /// Total register bits.
    pub register_bits: u64,
    /// Operand muxes.
    pub muxes: usize,
    /// Total mux arms (steering cases) over all muxes.
    pub mux_arms: usize,
    /// Width-adapter cells.
    pub adapters: usize,
    /// Values stored over the run (register writes).
    pub reg_writes: usize,
}

/// The structural netlist of one allocated datapath.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Netlist {
    /// Module name used by the Verilog emitter.
    pub name: String,
    /// Number of control steps (the FSM counts `0 .. steps`).
    pub steps: Cycles,
    /// Primary inputs in canonical (op id, port) order.
    pub inputs: Vec<InputPort>,
    /// Primary outputs in ascending sink-op order.
    pub outputs: Vec<OutputPort>,
    /// Result registers.
    pub registers: Vec<Register>,
    /// Functional units, one per datapath resource instance.
    pub fus: Vec<FunctionalUnit>,
    /// Operand muxes, exactly two per functional unit, in
    /// `(fu, port)`-major order.
    pub muxes: Vec<Mux>,
    /// Width adapters.
    pub adapters: Vec<Adapter>,
    /// Optimality certificate of the register binding: whether the packed
    /// register count provably equals the max-overlap lower bound of the
    /// lifetime interval graph, per width class.
    pub binding_certificate: BindingCertificate,
}

impl Netlist {
    /// The mux feeding the given functional-unit operand port.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    #[must_use]
    pub fn mux(&self, fu: usize, port: usize) -> &Mux {
        let m = &self.muxes[fu * 2 + port];
        debug_assert!(m.fu == fu && m.port == port, "mux layout invariant");
        m
    }

    /// Width in bits of any signal of the netlist.
    ///
    /// # Panics
    ///
    /// Panics if the signal's index is out of range.
    #[must_use]
    pub fn signal_width(&self, signal: Signal) -> u32 {
        match signal {
            Signal::Input(i) => self.inputs[i].width,
            Signal::Register(r) => self.registers[r].width,
            Signal::Adapter(a) => self.adapters[a].to_width,
            Signal::FuOutput(f) => self.fus[f].out_width,
        }
    }

    /// Total implementation area of the *functional units* under the given
    /// cost model — one component of [`area_breakdown`](Self::area_breakdown).
    /// By construction this equals the FU component of the datapath the
    /// netlist was lowered from ([`mwl_core::Datapath::area`], which counts
    /// functional units only); the equivalence checker asserts exactly that.
    #[must_use]
    fn fu_area(&self, cost: &dyn CostModel) -> Area {
        self.fus.iter().map(|f| cost.area(&f.resource)).sum()
    }

    /// Total multiplexer input bits: the sum of `width × arms` over muxes
    /// with at least two arms (a single-arm mux is a wire and costs
    /// nothing).
    #[must_use]
    pub fn mux_input_bits(&self) -> u64 {
        self.muxes
            .iter()
            .filter(|m| m.arms.len() >= 2)
            .map(|m| u64::from(m.width) * m.arms.len() as u64)
            .sum()
    }

    /// Splits the netlist's area into functional-unit, register and mux
    /// components using the cost model's [`mwl_model::StorageCosts`].
    ///
    /// Because the lowering and [`mwl_core::Datapath::area_breakdown`] use
    /// the same certified register packing and the same mux structure, the
    /// two breakdowns agree exactly; the equivalence checker asserts that.
    #[must_use]
    pub fn area_breakdown(&self, cost: &dyn CostModel) -> AreaBreakdown {
        let storage = cost.storage_costs();
        let register_bits: u64 = self.registers.iter().map(|r| u64::from(r.width)).sum();
        AreaBreakdown {
            fu: self.fu_area(cost),
            register: register_bits * storage.register_area_per_bit,
            mux: self.mux_input_bits() * storage.mux_area_per_input_bit,
        }
    }

    /// Aggregate cell statistics.
    #[must_use]
    pub fn stats(&self) -> NetlistStats {
        NetlistStats {
            steps: self.steps,
            inputs: self.inputs.len(),
            outputs: self.outputs.len(),
            fus: self.fus.len(),
            registers: self.registers.len(),
            register_bits: self.registers.iter().map(|r| u64::from(r.width)).sum(),
            muxes: self.muxes.len(),
            mux_arms: self.muxes.iter().map(|m| m.arms.len()).sum(),
            adapters: self.adapters.len(),
            reg_writes: self.registers.iter().map(|r| r.writes.len()).sum(),
        }
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.stats();
        writeln!(
            f,
            "netlist {}: {} steps, {} FUs, {} registers ({} bits), {} muxes ({} arms), {} adapters",
            self.name,
            s.steps,
            s.fus,
            s.registers,
            s.register_bits,
            s.muxes,
            s.mux_arms,
            s.adapters
        )?;
        for fu in &self.fus {
            let ops: Vec<String> = fu
                .activations
                .iter()
                .map(|a| format!("{}@{}..{}", a.op, a.start, a.end))
                .collect();
            writeln!(f, "  {} ({}): [{}]", fu.name, fu.resource, ops.join(", "))?;
        }
        for r in &self.registers {
            let vals: Vec<String> = r
                .writes
                .iter()
                .map(|w| format!("{}@{}", w.op, w.step))
                .collect();
            writeln!(f, "  {} [{}b]: [{}]", r.name, r.width, vals.join(", "))?;
        }
        Ok(())
    }
}

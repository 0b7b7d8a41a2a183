//! Human-readable reporting of an allocated datapath: per-instance
//! utilisation figures and an ASCII Gantt chart of the schedule.
//!
//! The report is what a designer would look at to understand *why* the
//! allocator chose a particular implementation: which operations share which
//! resource-wordlength instance, how busy each instance is within the
//! latency budget, and how much area each class contributes.

use std::fmt::Write as _;

use mwl_model::{Area, AreaBreakdown, CostModel, Cycles, ResourceClass, SequencingGraph};

use crate::datapath::Datapath;
use crate::storage::BindingCertificate;

/// Utilisation of one resource instance.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceUtilisation {
    /// Index of the instance within [`Datapath::instances`].
    pub instance: usize,
    /// Number of operations bound to the instance.
    pub operations: usize,
    /// Control steps during which the instance is busy.
    pub busy_steps: Cycles,
    /// Busy steps divided by the overall datapath latency (0.0–1.0).
    pub utilisation: f64,
    /// Area of the instance.
    pub area: Area,
}

/// A summary of a datapath used for reporting and for regression assertions
/// in tests.
#[derive(Debug, Clone, PartialEq)]
pub struct DatapathReport {
    /// Per-instance utilisation, in instance order.
    pub instances: Vec<InstanceUtilisation>,
    /// Total area per resource class.
    pub area_by_class: Vec<(ResourceClass, Area)>,
    /// Number of instances per resource class — the figure the post-bind
    /// merging pass drives down (one instance per class is the uniform
    /// baseline's design point).
    pub instances_by_class: Vec<(ResourceClass, usize)>,
    /// Overall latency of the datapath.
    pub latency: Cycles,
    /// Total area of the datapath.
    pub area: Area,
    /// Mean instance utilisation (0.0–1.0).
    pub mean_utilisation: f64,
    /// Per-component area under the model's storage coefficients (`fu`
    /// equals [`area`](Self::area); `register` and `mux` are zero under the
    /// default free-storage configuration).
    pub area_breakdown: AreaBreakdown,
    /// Number of result registers after certified interval packing.
    pub registers: usize,
    /// Total register storage in bits.
    pub register_bits: u64,
    /// Optimality certificate of the register packing.
    pub certificate: BindingCertificate,
}

impl DatapathReport {
    /// Builds the report for a datapath allocated from the given graph.
    #[must_use]
    pub fn new(datapath: &Datapath, graph: &SequencingGraph, cost: &dyn CostModel) -> Self {
        let latency = datapath.latency().max(1);
        let bound = datapath.bound_latencies(cost);
        let mut instances = Vec::new();
        let mut area_by_class: Vec<(ResourceClass, Area)> = Vec::new();
        let mut instances_by_class: Vec<(ResourceClass, usize)> = Vec::new();
        for (idx, inst) in datapath.instances().iter().enumerate() {
            let busy: Cycles = inst.ops().iter().map(|&o| bound.get(o)).sum();
            let area = cost.area(&inst.resource());
            instances.push(InstanceUtilisation {
                instance: idx,
                operations: inst.ops().len(),
                busy_steps: busy,
                utilisation: f64::from(busy) / f64::from(latency),
                area,
            });
            let class = inst.resource().class();
            match area_by_class.iter_mut().find(|(c, _)| *c == class) {
                Some((_, total)) => *total += area,
                None => area_by_class.push((class, area)),
            }
            match instances_by_class.iter_mut().find(|(c, _)| *c == class) {
                Some((_, count)) => *count += 1,
                None => instances_by_class.push((class, 1)),
            }
        }
        area_by_class.sort_by_key(|&(c, _)| c);
        instances_by_class.sort_by_key(|&(c, _)| c);
        let mean_utilisation = if instances.is_empty() {
            0.0
        } else {
            instances.iter().map(|i| i.utilisation).sum::<f64>() / instances.len() as f64
        };
        let binding = datapath.register_binding(graph, cost);
        let storage_costs = cost.storage_costs();
        let area_breakdown = AreaBreakdown {
            fu: datapath.area(),
            register: binding.register_bits() * storage_costs.register_area_per_bit,
            mux: datapath.mux_input_bits() * storage_costs.mux_area_per_input_bit,
        };
        DatapathReport {
            instances,
            area_by_class,
            instances_by_class,
            latency: datapath.latency(),
            area: datapath.area(),
            mean_utilisation,
            area_breakdown,
            registers: binding.registers(),
            register_bits: binding.register_bits(),
            certificate: binding.certificate,
        }
    }

    /// Renders the report as text, including an ASCII Gantt chart with one
    /// row per resource instance and one column per control step.
    #[must_use]
    pub fn render(
        &self,
        datapath: &Datapath,
        graph: &SequencingGraph,
        cost: &dyn CostModel,
    ) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "datapath report: area {} units, latency {} steps, mean utilisation {:.0}%",
            self.area,
            self.latency,
            self.mean_utilisation * 100.0
        );
        let _ = writeln!(
            out,
            "  area breakdown: fu {} + registers {} + muxes {} = {} units \
             ({} registers, {} bits, binding {})",
            self.area_breakdown.fu,
            self.area_breakdown.register,
            self.area_breakdown.mux,
            self.area_breakdown.total(),
            self.registers,
            self.register_bits,
            self.certificate.as_str()
        );
        for (class, area) in &self.area_by_class {
            let instances = self
                .instances_by_class
                .iter()
                .find(|(c, _)| c == class)
                .map_or(0, |&(_, n)| n);
            let _ = writeln!(out, "  {class} area: {area} units ({instances} instances)");
        }
        let bound = datapath.bound_latencies(cost);
        let _ = writeln!(out, "  gantt (one row per instance, '.' = idle):");
        for (idx, inst) in datapath.instances().iter().enumerate() {
            let mut row = vec!['.'; self.latency as usize];
            for &op in inst.ops() {
                let start = datapath.schedule().start(op);
                let end = start + bound.get(op);
                let symbol = char::from_digit((op.index() % 36) as u32, 36).unwrap_or('#');
                for step in start..end.min(self.latency) {
                    row[step as usize] = symbol;
                }
            }
            let util = &self.instances[idx];
            let _ = writeln!(
                out,
                "    [{idx:>2}] {:<24} |{}| {:>3.0}%",
                inst.resource().to_string(),
                row.iter().collect::<String>(),
                util.utilisation * 100.0
            );
        }
        let _ = writeln!(out, "  operation -> resource selection:");
        for op in graph.op_ids() {
            let _ = writeln!(
                out,
                "    {} -> {}",
                graph.operation(op),
                datapath.selected_resource(op)
            );
        }
        out
    }
}

/// Convenience: builds and renders a report in one call.
#[must_use]
pub fn render_report(datapath: &Datapath, graph: &SequencingGraph, cost: &dyn CostModel) -> String {
    DatapathReport::new(datapath, graph, cost).render(datapath, graph, cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dpalloc::{AllocConfig, DpAllocator};
    use mwl_model::{OpShape, SequencingGraphBuilder, SonicCostModel};

    fn allocated() -> (SequencingGraph, Datapath, SonicCostModel) {
        let mut b = SequencingGraphBuilder::new();
        let m1 = b.add_operation(OpShape::multiplier(8, 8));
        let m2 = b.add_operation(OpShape::multiplier(12, 12));
        let a = b.add_operation(OpShape::adder(24));
        b.add_dependency(m1, a).unwrap();
        b.add_dependency(m2, a).unwrap();
        let g = b.build().unwrap();
        let cost = SonicCostModel::default();
        let dp = DpAllocator::new(&cost, AllocConfig::new(12))
            .allocate(&g)
            .unwrap();
        (g, dp, cost)
    }

    #[test]
    fn report_totals_match_datapath() {
        let (g, dp, cost) = allocated();
        let report = DatapathReport::new(&dp, &g, &cost);
        assert_eq!(report.area, dp.area());
        assert_eq!(report.latency, dp.latency());
        assert_eq!(report.instances.len(), dp.num_instances());
        let class_total: Area = report.area_by_class.iter().map(|&(_, a)| a).sum();
        assert_eq!(class_total, dp.area());
        let instance_total: Area = report.instances.iter().map(|i| i.area).sum();
        assert_eq!(instance_total, dp.area());
        let instance_count: usize = report.instances_by_class.iter().map(|&(_, n)| n).sum();
        assert_eq!(instance_count, dp.num_instances());
        // Default storage costs are zero: the breakdown is FU-only and the
        // register packing is certified optimal.
        assert_eq!(report.area_breakdown.fu, dp.area());
        assert_eq!(report.area_breakdown.register, 0);
        assert_eq!(report.area_breakdown.mux, 0);
        assert_eq!(report.area_breakdown.total(), dp.area());
        assert_eq!(report.certificate, BindingCertificate::Optimal);
        assert!(report.registers >= 1);
        assert!(report.register_bits >= u64::from(report.registers as u32));
        assert_eq!(
            report
                .area_by_class
                .iter()
                .map(|&(c, _)| c)
                .collect::<Vec<_>>(),
            report
                .instances_by_class
                .iter()
                .map(|&(c, _)| c)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn utilisation_is_in_unit_range_and_consistent() {
        let (g, dp, cost) = allocated();
        let report = DatapathReport::new(&dp, &g, &cost);
        for inst in &report.instances {
            assert!(inst.utilisation > 0.0);
            assert!(inst.utilisation <= 1.0 + 1e-9);
            assert!(inst.operations >= 1);
            assert!(inst.busy_steps >= 1);
        }
        assert!(report.mean_utilisation > 0.0);
    }

    #[test]
    fn render_mentions_every_instance_and_operation() {
        let (g, dp, cost) = allocated();
        let text = render_report(&dp, &g, &cost);
        assert!(text.contains("datapath report"));
        assert!(text.contains("area breakdown"));
        assert!(text.contains("binding optimal"));
        assert!(text.contains("gantt"));
        for inst in dp.instances() {
            assert!(text.contains(&inst.resource().to_string()));
        }
        for op in g.op_ids() {
            assert!(text.contains(&op.to_string()));
        }
        // Gantt rows are exactly as wide as the latency.
        let gantt_rows: Vec<&str> = text.lines().filter(|l| l.contains('|')).collect();
        assert_eq!(gantt_rows.len(), dp.num_instances());
    }

    #[test]
    fn single_op_report() {
        let mut b = SequencingGraphBuilder::new();
        b.add_operation(OpShape::adder(8));
        let g = b.build().unwrap();
        let cost = SonicCostModel::default();
        let dp = DpAllocator::new(&cost, AllocConfig::new(2))
            .allocate(&g)
            .unwrap();
        let report = DatapathReport::new(&dp, &g, &cost);
        assert_eq!(report.instances.len(), 1);
        assert!((report.instances[0].utilisation - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_id_overflow_symbols_do_not_panic() {
        // Graphs with more than 36 operations exercise the symbol wrap-around.
        let mut b = SequencingGraphBuilder::new();
        let mut prev = None;
        for _ in 0..40 {
            let op = b.add_operation(OpShape::adder(8));
            if let Some(p) = prev {
                b.add_dependency(p, op).unwrap();
            }
            prev = Some(op);
        }
        let g = b.build().unwrap();
        let cost = SonicCostModel::default();
        let dp = DpAllocator::new(&cost, AllocConfig::new(80))
            .allocate(&g)
            .unwrap();
        let text = render_report(&dp, &g, &cost);
        assert!(text.contains("o39"));
    }
}

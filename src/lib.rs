//! Heuristic datapath allocation for multiple wordlength systems.
//!
//! This is the facade crate of the workspace reproducing Constantinides,
//! Cheung and Luk, *Heuristic Datapath Allocation for Multiple Wordlength
//! Systems* (DATE 2001).  It re-exports the individual crates so that
//! examples, integration tests and downstream users can depend on a single
//! crate:
//!
//! * [`obs`] — zero-dependency telemetry: stage spans, metrics, Chrome
//!   traces, provably non-perturbing ([`mwl_obs`]);
//! * [`model`] — operations, wordlengths, resource types, cost models and the
//!   sequencing graph ([`mwl_model`]);
//! * [`sched`] — ASAP/ALAP and resource-constrained list scheduling with the
//!   wordlength-aware constraint of Eqn (3) ([`mwl_sched`]);
//! * [`wcg`] — the wordlength compatibility graph ([`mwl_wcg`]);
//! * [`alloc`] — the `DPAlloc` heuristic, `BindSelect` binding and the
//!   [`alloc::Datapath`] result type ([`mwl_core`]);
//! * [`lp`] — the simplex / branch-and-bound ILP substrate ([`mwl_lp`]);
//! * [`optimal`] — the optimal ILP and exhaustive allocators ([`mwl_optimal`]);
//! * [`baselines`] — the two-stage \[4\], wordlength-sorted \[14\] and
//!   uniform-wordlength baselines ([`mwl_baselines`]);
//! * [`tgff`] — the TGFF-style random graph generator ([`mwl_tgff`]);
//! * [`driver`] — the parallel batch-allocation engine ([`mwl_driver`]);
//! * [`serve`] — the allocation daemon: TCP wire protocol, bounded job queue
//!   with back-pressure, dedup cache and client ([`mwl_serve`]).
//!
//! A paper-to-module map with data-flow diagrams lives in
//! `docs/ARCHITECTURE.md`.
//!
//! # Quick start
//!
//! ```
//! use mwl::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A small dataflow: two multiplications feeding an addition.
//! let mut builder = SequencingGraphBuilder::new();
//! let x = builder.add_operation(OpShape::multiplier(8, 8));
//! let y = builder.add_operation(OpShape::multiplier(14, 10));
//! let sum = builder.add_operation(OpShape::adder(24));
//! builder.add_dependency(x, sum)?;
//! builder.add_dependency(y, sum)?;
//! let graph = builder.build()?;
//!
//! // Allocate with the SONIC cost model and a 12-step latency budget.
//! let cost = SonicCostModel::default();
//! let datapath = DpAllocator::new(&cost, AllocConfig::new(12)).allocate(&graph)?;
//! assert!(datapath.latency() <= 12);
//! datapath.validate(&graph, &cost)?;
//! println!("{datapath}");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Operations, wordlengths, resources, cost models and sequencing graphs.
///
/// # Examples
///
/// Build the sequencing graph of the paper's Figure 1 — four multiplications
/// of individually optimised wordlengths feeding a small adder tree:
///
/// ```
/// use mwl::model::{OpShape, SequencingGraphBuilder};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut builder = SequencingGraphBuilder::new();
/// let m1 = builder.add_named_operation(OpShape::multiplier(8, 8), "m1");
/// let m2 = builder.add_named_operation(OpShape::multiplier(12, 10), "m2");
/// let a1 = builder.add_named_operation(OpShape::adder(24), "a1");
/// builder.add_dependency(m1, a1)?;
/// builder.add_dependency(m2, a1)?;
/// let graph = builder.build()?;
///
/// assert_eq!(graph.len(), 3);
/// // Topological order respects the data dependencies.
/// let order = graph.topological_order();
/// assert_eq!(order.last(), Some(&a1));
/// // Multiplier shapes are operand-order normalised: 10x12 == 12x10.
/// assert_eq!(OpShape::multiplier(10, 12), OpShape::multiplier(12, 10));
/// # Ok(())
/// # }
/// ```
pub mod model {
    pub use mwl_model::*;
}

/// Zero-dependency telemetry: hierarchical stage spans, a metrics registry
/// (counters, log-bucketed histograms), a Chrome trace-event
/// document, and the workspace's one JSON codec (`mwl::obs::json`).
///
/// The defining invariant — pinned by `crates/core/tests/obs_identity.rs`
/// and `crates/driver/tests/obs_determinism.rs`, and measured by the
/// committed `BENCH_obs.json` gate — is that recording is **non-perturbing**:
/// allocation results are bit-identical with observability off, in
/// stage-timing mode and in full trace mode, at every worker count.  See
/// `docs/OBSERVABILITY.md` for the span taxonomy and metric names.
///
/// # Examples
///
/// Time the allocator's internal stages through the scratch-state recorder
/// (the batch driver and daemon drive the same hooks):
///
/// ```
/// use mwl::obs::{ObsMode, Stage};
/// use mwl::prelude::*;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut generator = TgffGenerator::new(TgffConfig::with_ops(10), 5);
/// let graph = generator.generate();
/// let cost = SonicCostModel::default();
/// let native = OpLatencies::from_fn(&graph, |op| cost.native_latency(op.shape()));
/// let lambda = critical_path_length(&graph, &native) + 2;
///
/// let mut scratch = AllocScratch::new();
/// scratch.obs.set_mode(ObsMode::Stages);
/// DpAllocator::new(&cost, AllocConfig::new(lambda))
///     .allocate_with_scratch(&graph, &mut scratch)?;
/// let stages = scratch.obs.take_stages();
/// assert!(stages.get(Stage::Schedule) > 0);
/// assert!(stages.get(Stage::Bind) > 0);
/// # Ok(())
/// # }
/// ```
///
/// Aggregate service-style metrics and read back a snapshot:
///
/// ```
/// use mwl::obs::{MetricsRegistry, Stopwatch};
///
/// let registry = MetricsRegistry::new();
/// let latency = registry.histogram("request_ns");
/// let clock = Stopwatch::start();
/// registry.counter("requests").add(1);
/// latency.record(clock.elapsed_ns().max(1));
/// let snapshot = registry.snapshot();
/// assert_eq!(snapshot.counters, vec![("requests".to_string(), 1)]);
/// assert_eq!(snapshot.histograms[0].1.count, 1);
/// ```
pub mod obs {
    pub use mwl_obs::*;
}

/// ASAP/ALAP, list scheduling and scheduling-set computation.
///
/// Implements Section 2.2 of the paper, including the wordlength-aware
/// scheduling-set constraint of Eqn (3) (see `mwl_sched::constraint`).
///
/// # Examples
///
/// Native latencies and the critical path give the minimum achievable
/// latency constraint `λ_min`:
///
/// ```
/// use mwl::model::{CostModel, OpShape, SequencingGraphBuilder, SonicCostModel};
/// use mwl::sched::{asap, critical_path_length, OpLatencies};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut builder = SequencingGraphBuilder::new();
/// let m = builder.add_operation(OpShape::multiplier(16, 14));
/// let a = builder.add_operation(OpShape::adder(24));
/// builder.add_dependency(m, a)?;
/// let graph = builder.build()?;
///
/// let cost = SonicCostModel::default();
/// let native = OpLatencies::from_fn(&graph, |op| cost.native_latency(op.shape()));
/// let schedule = asap(&graph, &native);
/// // The multiplication starts immediately, the addition after it retires.
/// assert_eq!(schedule.start(m), 0);
/// assert_eq!(schedule.start(a), native.get(m));
/// assert_eq!(
///     critical_path_length(&graph, &native),
///     native.get(m) + native.get(a),
/// );
/// # Ok(())
/// # }
/// ```
pub mod sched {
    pub use mwl_sched::*;
}

/// The wordlength compatibility graph `G(V, E)` of Section 2.1.
///
/// # Examples
///
/// Initially every resource type that covers an operation is connected to
/// it; refinement (Section 2.2) deletes edges to tighten latency bounds:
///
/// ```
/// use mwl::model::{OpShape, SequencingGraphBuilder, SonicCostModel};
/// use mwl::wcg::WordlengthCompatibilityGraph;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut builder = SequencingGraphBuilder::new();
/// let small = builder.add_operation(OpShape::multiplier(12, 8));
/// let large = builder.add_operation(OpShape::multiplier(20, 18));
/// builder.add_dependency(small, large)?;
/// let graph = builder.build()?;
///
/// use mwl::model::CostModel;
///
/// let cost = SonicCostModel::default();
/// let wcg = WordlengthCompatibilityGraph::new(&graph, &cost);
/// // The large multiplier type covers both operations, so the small
/// // multiplication has at least two candidate resource types...
/// assert!(wcg.resources_for(small).len() >= 2);
/// // ...its latency upper bound is at least its native latency (running on
/// // a wider candidate is slower)...
/// assert!(
///     wcg.upper_bound_latency(small)
///         >= cost.native_latency(graph.operation(small).shape())
/// );
/// // ...and at least the large multiplication's bound, since every resource
/// // covering the large shape also covers the small one.
/// assert!(wcg.upper_bound_latency(small) >= wcg.upper_bound_latency(large));
/// # Ok(())
/// # }
/// ```
pub mod wcg {
    pub use mwl_wcg::*;
}

/// The `DPAlloc` heuristic and the datapath result type.
///
/// Besides the paper's schedule/bind/refine loop, the allocator runs a
/// post-bind *instance-merging* pass (`mwl::alloc::merge`, on by default):
/// same-class instances are coalesced onto the component-wise-maximum
/// resource type whenever re-serialising their operations strictly reduces
/// area within the latency budget.  Disable it with
/// [`AllocConfig::with_instance_merging`](crate::alloc::AllocConfig::with_instance_merging)
/// to reproduce the paper's split-only behaviour:
///
/// ```
/// use mwl::prelude::*;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut generator = TgffGenerator::new(TgffConfig::with_ops(12), 606);
/// let graph = generator.generate();
/// let cost = SonicCostModel::default();
/// let native = OpLatencies::from_fn(&graph, |op| cost.native_latency(op.shape()));
/// let lambda = critical_path_length(&graph, &native) + 10;
///
/// let merged = DpAllocator::new(&cost, AllocConfig::new(lambda)).allocate(&graph)?;
/// let split = DpAllocator::new(
///     &cost,
///     AllocConfig::new(lambda).with_instance_merging(false),
/// )
/// .allocate(&graph)?;
/// assert!(merged.area() <= split.area());
/// assert!(merged.latency() <= lambda);
/// # Ok(())
/// # }
/// ```
///
/// # Examples
///
/// The quickstart workload (`examples/quickstart.rs`): allocating Figure 1's
/// graph with a relaxed latency constraint lets the heuristic implement the
/// small `8×8` multiplication inside a larger, slower multiplier so the two
/// can share hardware — trading latency for area exactly as Figure 1(b)
/// illustrates:
///
/// ```
/// use mwl::prelude::*;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut builder = SequencingGraphBuilder::new();
/// let m1 = builder.add_named_operation(OpShape::multiplier(8, 8), "m1");
/// let m2 = builder.add_named_operation(OpShape::multiplier(12, 10), "m2");
/// let m3 = builder.add_named_operation(OpShape::multiplier(16, 14), "m3");
/// let m4 = builder.add_named_operation(OpShape::multiplier(20, 18), "m4");
/// let a1 = builder.add_named_operation(OpShape::adder(24), "a1");
/// let a2 = builder.add_named_operation(OpShape::adder(25), "a2");
/// builder.add_dependency(m1, a1)?;
/// builder.add_dependency(m2, a1)?;
/// builder.add_dependency(m3, a2)?;
/// builder.add_dependency(m4, a2)?;
/// let graph = builder.build()?;
///
/// let cost = SonicCostModel::default();
/// let native = OpLatencies::from_fn(&graph, |op| cost.native_latency(op.shape()));
/// let lambda_min = critical_path_length(&graph, &native);
///
/// let tight = DpAllocator::new(&cost, AllocConfig::new(lambda_min)).allocate(&graph)?;
/// let relaxed = DpAllocator::new(&cost, AllocConfig::new(lambda_min + 3)).allocate(&graph)?;
/// tight.validate(&graph, &cost)?;
/// relaxed.validate(&graph, &cost)?;
///
/// // Slack lets operations share: fewer instances, less area.
/// assert!(relaxed.num_instances() < tight.num_instances());
/// assert!(relaxed.area() < tight.area());
/// assert!(relaxed.latency() <= lambda_min + 3);
/// # Ok(())
/// # }
/// ```
///
/// When allocating many graphs on one thread, reuse an
/// [`alloc::AllocScratch`] across jobs so the inner loop stays
/// allocation-free (the batch driver does this per worker automatically);
/// results are bit-identical either way:
///
/// ```
/// use mwl::prelude::*;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut builder = SequencingGraphBuilder::new();
/// builder.add_operation(OpShape::multiplier(8, 8));
/// let graph = builder.build()?;
/// let cost = SonicCostModel::default();
///
/// let mut scratch = AllocScratch::new();
/// for lambda in [2, 4, 8] {
///     let outcome = DpAllocator::new(&cost, AllocConfig::new(lambda))
///         .allocate_with_scratch(&graph, &mut scratch)?;
///     assert!(outcome.datapath.latency() <= lambda);
/// }
/// # Ok(())
/// # }
/// ```
///
/// The frozen pre-optimization implementation is kept as the
/// [`alloc::reference`] module — the specification oracle the optimized
/// loop is regression-tested against, and the baseline of the committed
/// `BENCH_alloc.json` performance trajectory.
pub mod alloc {
    pub use mwl_core::*;
}

/// Simplex and branch-and-bound integer programming.
///
/// # Examples
///
/// A 0/1 knapsack: maximise `3x + 2y` subject to `2x + 2y <= 3`:
///
/// ```
/// use mwl::lp::{BranchBoundOptions, LpProblem, Sense};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut lp = LpProblem::new(Sense::Maximize);
/// let x = lp.add_binary(3.0);
/// let y = lp.add_binary(2.0);
/// lp.add_le(&[(x, 2.0), (y, 2.0)], 3.0);
/// let solution = lp.solve(BranchBoundOptions::default())?;
/// assert!((solution.objective - 3.0).abs() < 1e-6);
/// assert!((solution.values[x.index()] - 1.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
pub mod lp {
    pub use mwl_lp::*;
}

/// Optimal (ILP and exhaustive) allocation.
///
/// # Examples
///
/// On small graphs the exact solvers lower-bound the heuristic, which is how
/// the paper measures its 0-16% mean area premium (Figure 4):
///
/// ```
/// use mwl::prelude::*;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut builder = SequencingGraphBuilder::new();
/// let m1 = builder.add_operation(OpShape::multiplier(8, 6));
/// let m2 = builder.add_operation(OpShape::multiplier(12, 10));
/// let a = builder.add_operation(OpShape::adder(22));
/// builder.add_dependency(m1, a)?;
/// builder.add_dependency(m2, a)?;
/// let graph = builder.build()?;
///
/// let cost = SonicCostModel::default();
/// let native = OpLatencies::from_fn(&graph, |op| cost.native_latency(op.shape()));
/// let lambda = critical_path_length(&graph, &native) + 2;
///
/// let heuristic = DpAllocator::new(&cost, AllocConfig::new(lambda)).allocate(&graph)?;
/// let optimum = ExhaustiveAllocator::new(&cost, lambda).allocate(&graph)?;
/// assert!(optimum.area() <= heuristic.area());
/// # Ok(())
/// # }
/// ```
pub mod optimal {
    pub use mwl_optimal::*;
}

/// Baseline allocators from the literature.
///
/// # Examples
///
/// A scaled-down version of the FIR-filter workload (`examples/fir_filter.rs`
/// uses 8 taps; 4 here keeps the doc-test fast): compare the heuristic
/// against the two-stage baseline \[4\] and the uniform-wordlength
/// (DSP-processor style) design:
///
/// ```
/// use mwl::prelude::*;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Per-tap wordlengths as a wordlength-optimisation tool would assign.
/// let mut builder = SequencingGraphBuilder::new();
/// let taps = [(4, 10), (9, 12), (9, 12), (4, 10)];
/// let products: Vec<_> = taps
///     .iter()
///     .map(|&(c, d)| builder.add_operation(OpShape::multiplier(c, d)))
///     .collect();
/// let s1 = builder.add_operation(OpShape::adder(16));
/// let s2 = builder.add_operation(OpShape::adder(16));
/// let s3 = builder.add_operation(OpShape::adder(16));
/// builder.add_dependency(products[0], s1)?;
/// builder.add_dependency(products[1], s1)?;
/// builder.add_dependency(products[2], s2)?;
/// builder.add_dependency(products[3], s2)?;
/// builder.add_dependency(s1, s3)?;
/// builder.add_dependency(s2, s3)?;
/// let graph = builder.build()?;
///
/// let cost = SonicCostModel::default();
/// let native = OpLatencies::from_fn(&graph, |op| cost.native_latency(op.shape()));
/// let lambda = critical_path_length(&graph, &native) + 4;
///
/// let heuristic = DpAllocator::new(&cost, AllocConfig::new(lambda)).allocate(&graph)?;
/// let two_stage = TwoStageAllocator::new(&cost, lambda).allocate(&graph)?;
/// let uniform = UniformWordlengthAllocator::new(&cost, lambda).allocate(&graph)?;
/// heuristic.validate(&graph, &cost)?;
/// two_stage.validate(&graph, &cost)?;
/// uniform.validate(&graph, &cost)?;
/// assert!(heuristic.area() > 0);
/// # Ok(())
/// # }
/// ```
pub mod baselines {
    pub use mwl_baselines::*;
}

/// TGFF-style random sequencing-graph generation.
///
/// # Examples
///
/// Generation is seeded, so every experiment is reproducible:
///
/// ```
/// use mwl::prelude::*;
///
/// let mut a = TgffGenerator::new(TgffConfig::with_ops(12), 7);
/// let mut b = TgffGenerator::new(TgffConfig::with_ops(12), 7);
/// let (ga, gb) = (a.generate(), b.generate());
/// assert_eq!(ga.len(), 12);
/// assert_eq!(ga.len(), gb.len());
/// assert_eq!(
///     ga.operations().iter().map(|o| o.shape()).collect::<Vec<_>>(),
///     gb.operations().iter().map(|o| o.shape()).collect::<Vec<_>>(),
/// );
/// ```
pub mod tgff {
    pub use mwl_tgff::*;
}

/// Parallel batch allocation across a scoped worker pool.
///
/// Fans many (graph, λ-budget, config) jobs across threads with a shared
/// read-only cost cache; results are bit-identical for every worker count.
///
/// # Examples
///
/// Allocate a whole scenario family in one call — here the same seeded graph
/// under three latency budgets — and aggregate the outcomes:
///
/// ```
/// use mwl::prelude::*;
///
/// let mut generator = TgffGenerator::new(TgffConfig::with_ops(9), 11);
/// let graph = generator.generate();
/// let jobs: Vec<BatchJob> = [0u32, 15, 30]
///     .into_iter()
///     .map(|pct| {
///         BatchJob::new(
///             format!("relax+{pct}%"),
///             graph.clone(),
///             LatencySpec::RelaxPercent(pct),
///         )
///     })
///     .collect();
///
/// let cost = SonicCostModel::default();
/// let report = run_batch(&jobs, &cost, &BatchOptions::default());
/// assert_eq!(report.summary().succeeded, 3);
///
/// // Outcomes come back in submission order and respect their budgets;
/// // each carries a `JobStats` and the whole batch aggregates into a
/// // `BatchSummary` (both re-exported via `mwl::prelude`).
/// for (o, pct) in report.outcomes.iter().zip([0u32, 15, 30]) {
///     assert_eq!(o.label, format!("relax+{pct}%"));
///     let stats: &JobStats = o.result.as_ref().unwrap();
///     assert!(stats.latency <= stats.lambda);
///     // No job opted into the RTL oracle, so no check ran.
///     assert!(stats.rtl.is_none());
/// }
/// let summary: BatchSummary = report.summary();
/// assert_eq!(summary.succeeded, 3);
/// assert_eq!(summary.rtl_checked, 0);
/// ```
///
/// Opting a job into the RTL equivalence oracle attaches an
/// [`RtlCheck`](mwl_driver::RtlCheck) (also in the prelude) to its stats:
///
/// ```
/// use mwl::prelude::*;
///
/// let mut generator = TgffGenerator::new(TgffConfig::with_ops(8), 21);
/// let job = BatchJob::new("checked", generator.generate(), LatencySpec::RelaxSteps(2))
///     .with_rtl_check(true);
/// let cost = SonicCostModel::default();
/// let report = run_batch(&[job], &cost, &BatchOptions::sequential().with_rtl_vectors(2));
/// let rtl: &RtlCheck = report.outcomes[0]
///     .result
///     .as_ref()
///     .unwrap()
///     .rtl
///     .as_ref()
///     .unwrap();
/// assert!(rtl.passed);
/// assert_eq!(rtl.vectors, 2);
/// assert_eq!(report.summary().rtl_passed, 1);
/// ```
pub mod driver {
    pub use mwl_driver::*;
}

/// RTL backend: structural netlist lowering, cycle-accurate bit-true
/// simulation and Verilog-2001 emission of allocated datapaths.
///
/// The allocator stops at an abstract schedule + binding; this backend
/// produces the hardware the paper is actually about — shared functional
/// units behind steering muxes, lifetime-shared result registers, explicit
/// sign-extend/truncate width adapters and an FSM controller — and proves
/// the implementation faithful by simulating it cycle by cycle against a
/// reference fixed-point evaluation of the source graph.
///
/// # Examples
///
/// Allocate a multiply-accumulate kernel, verify the netlist bit-exactly
/// and emit synthesisable Verilog:
///
/// ```
/// use mwl::prelude::*;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut builder = SequencingGraphBuilder::new();
/// let m1 = builder.add_named_operation(OpShape::multiplier(8, 8), "m1");
/// let m2 = builder.add_named_operation(OpShape::multiplier(12, 10), "m2");
/// let a1 = builder.add_named_operation(OpShape::adder(24), "a1");
/// builder.add_dependency(m1, a1)?;
/// builder.add_dependency(m2, a1)?;
/// let graph = builder.build()?;
///
/// let cost = SonicCostModel::default();
/// let datapath = DpAllocator::new(&cost, AllocConfig::new(12)).allocate(&graph)?;
///
/// // Bit-true equivalence oracle: netlist simulation vs reference
/// // fixed-point evaluation, plus the area cross-check.
/// let vectors = random_vectors(&graph, 42, 8);
/// let report = check_equivalence(&graph, &datapath, &cost, &vectors)?;
/// assert_eq!(report.netlist_area, datapath.area());
///
/// // Inspect the structural netlist and print it as Verilog-2001.
/// let netlist = lower_datapath(&graph, &datapath, &cost, "mac")?;
/// assert_eq!(netlist.fus.len(), datapath.num_instances());
/// let verilog = emit_verilog(&netlist);
/// assert!(verilog.contains("module mac ("));
/// assert!(verilog.trim_end().ends_with("endmodule"));
/// # Ok(())
/// # }
/// ```
pub mod rtl {
    pub use mwl_rtl::*;
}

/// Allocation-as-a-service: a TCP daemon over the batch engine.
///
/// A [`serve::Server`] accepts newline-delimited JSON requests, admits jobs
/// into a bounded priority queue with explicit back-pressure, solves them on
/// persistent workers through the exact batch-engine path (results are
/// byte-identical to [`driver::run_batch`]), memoises completed results
/// under a content hash, and streams results back in submission order.  The
/// `serve` binary wraps it for deployment.
///
/// # Examples
///
/// Run a server on an OS-assigned port, round-trip one job and shut down
/// gracefully:
///
/// ```
/// use mwl::prelude::*;
/// use mwl::serve::wire::{JobConfig, SubmitRequest, WireGraph, WireOutcome};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let server = SpawnedServer::start(ServerConfig::default())?;
/// let mut client = Client::connect(server.addr())?;
///
/// let mut builder = SequencingGraphBuilder::new();
/// let m = builder.add_operation(OpShape::multiplier(8, 8));
/// let a = builder.add_operation(OpShape::adder(16));
/// builder.add_dependency(m, a)?;
/// let graph = builder.build()?;
///
/// let ack = client.submit(SubmitRequest {
///     id: 1,
///     label: None,
///     priority: 0,
///     graph: WireGraph::from_graph(&graph),
///     latency: LatencySpec::RelaxSteps(2),
///     config: JobConfig::default(),
/// })?;
/// assert_eq!(ack, SubmitAck::Accepted);
/// let (id, outcome) = client.next_result()?;
/// assert_eq!(id, 1);
/// assert!(matches!(outcome, WireOutcome::Ok(_)));
/// client.shutdown()?;
/// assert_eq!(server.join().completed, 1);
/// # Ok(())
/// # }
/// ```
pub mod serve {
    pub use mwl_serve::*;
}

/// The FIR-filter workload shared by `examples/fir_filter.rs` and the
/// Verilog golden test.
pub mod workloads {
    use mwl_model::{ModelError, OpId, OpShape, SequencingGraph, SequencingGraphBuilder};

    /// Builds a direct-form FIR filter `y = Σ c_i · x_{n-i}`: one
    /// multiplication per tap at its `(coefficient, data)` wordlengths,
    /// summed by a balanced tree of `accumulator_width`-bit adders.
    ///
    /// This is the workload of `examples/fir_filter.rs` and of the Verilog
    /// golden test (`tests/rtl_golden.rs`); keeping it in one place keeps
    /// the two from drifting apart.
    ///
    /// # Errors
    ///
    /// Returns a [`ModelError`] when `taps` is empty or a wordlength is out
    /// of range.
    ///
    /// # Examples
    ///
    /// ```
    /// let graph = mwl::workloads::fir_graph(&[(4, 10), (9, 12)], 16)?;
    /// assert_eq!(graph.len(), 3); // two taps + one adder
    /// assert_eq!(graph.sinks().len(), 1);
    /// # Ok::<(), mwl::model::ModelError>(())
    /// ```
    pub fn fir_graph(
        taps: &[(u32, u32)],
        accumulator_width: u32,
    ) -> Result<SequencingGraph, ModelError> {
        let mut builder = SequencingGraphBuilder::new();
        let products: Vec<OpId> = taps
            .iter()
            .enumerate()
            .map(|(i, &(coeff, data))| {
                builder.add_named_operation(OpShape::multiplier(coeff, data), format!("tap{i}"))
            })
            .collect();
        // Balanced adder tree over the products.
        let mut level = products;
        let mut adder_index = 0;
        while level.len() > 1 {
            let mut next = Vec::new();
            for pair in level.chunks(2) {
                if pair.len() == 2 {
                    let sum = builder.add_named_operation(
                        OpShape::adder(accumulator_width),
                        format!("acc{adder_index}"),
                    );
                    adder_index += 1;
                    builder.add_dependency(pair[0], sum)?;
                    builder.add_dependency(pair[1], sum)?;
                    next.push(sum);
                } else {
                    next.push(pair[0]);
                }
            }
            level = next;
        }
        builder.build()
    }

    /// The 8-tap coefficient/data wordlengths used by the FIR example and
    /// the Verilog golden test: outer taps need far fewer bits than the
    /// centre taps, as a wordlength-optimisation tool would assign.
    pub const FIR8_TAPS: [(u32, u32); 8] = [
        (4, 10),
        (6, 10),
        (9, 12),
        (14, 14),
        (14, 14),
        (9, 12),
        (6, 10),
        (4, 10),
    ];
}

/// The most commonly used items in one import.
pub mod prelude {
    pub use mwl_baselines::{TwoStageAllocator, UniformWordlengthAllocator};
    pub use mwl_core::{
        merge_instances, pack_registers, run_portfolio, AllocConfig, AllocError, AllocScratch,
        BindingCertificate, CachedCostModel, Datapath, DpAllocator, MergeStats, PortfolioOutcome,
        PortfolioSpec, PortfolioStats, RegisterBinding, ResourceInstance, ValueLifetime,
    };
    pub use mwl_driver::{
        run_batch, BatchJob, BatchOptions, BatchReport, BatchSummary, JobOutcome, JobStats,
        LatencySpec, RtlCheck,
    };
    pub use mwl_model::{
        AreaBreakdown, CostModel, Cycles, OpId, OpKind, OpShape, Operation, ResourceClass,
        ResourceType, SequencingGraph, SequencingGraphBuilder, SonicCostModel, StorageCosts,
    };
    pub use mwl_obs::{ObsMode, Stage, StageNanos, Stopwatch};
    pub use mwl_optimal::{ExhaustiveAllocator, IlpAllocator};
    pub use mwl_rtl::{
        check_equivalence, emit_verilog, evaluate_reference, lower_datapath, random_vectors,
        simulate, EquivalenceReport, Netlist, NetlistStats, RtlError,
    };
    pub use mwl_sched::{asap, critical_path_length, OpLatencies, Schedule};
    pub use mwl_serve::{Client, ServerConfig, SpawnedServer, StatsSnapshot, SubmitAck};
    pub use mwl_tgff::{TgffConfig, TgffGenerator};
    pub use mwl_wcg::WordlengthCompatibilityGraph;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_covers_the_main_workflow() {
        let mut generator = TgffGenerator::new(TgffConfig::with_ops(6), 1);
        let graph = generator.generate();
        let cost = SonicCostModel::default();
        let native = OpLatencies::from_fn(&graph, |op| cost.native_latency(op.shape()));
        let lambda = critical_path_length(&graph, &native) + 2;
        let datapath = DpAllocator::new(&cost, AllocConfig::new(lambda))
            .allocate(&graph)
            .unwrap();
        datapath.validate(&graph, &cost).unwrap();
    }
}

//! Portfolio search: racing deterministic DPAlloc variants for solution
//! quality.
//!
//! The paper's heuristic commits to a single refinement trajectory.  This
//! module turns spare cores into *solution quality* instead of raw speed: `N`
//! variants of the DPAlloc loop — the unmodified baseline plus deterministic
//! mutations of its heuristic knobs — race on a pool of worker threads, each
//! filling its own result slot.  After the join, the winner is the candidate
//! minimising the total order
//!
//! > (area, latency, datapath fingerprint, variant id)
//!
//! which contains no trace of *arrival* order, so the outcome is
//! bit-reproducible for a given `(seed, N)` at any thread count and any
//! interleaving.
//!
//! # Variant taxonomy
//!
//! Variant 0 is always the unmodified base configuration — the single
//! trajectory the plain allocator would run — so the portfolio can never lose
//! to it: the winner's area is `≤` variant 0's by construction.  Variants
//! `1..N` draw mutations from their own PRNG stream, derived as
//! `StableHasher(seed, variant_index)` so streams never overlap and adding
//! variants never perturbs existing ones:
//!
//! * **clique growth off** — disable the BindSelect compensation step,
//! * **first-refinable refinement** — replace the bound-critical-path rule,
//! * **input-order scheduling priority** — replace critical-path priority,
//! * **perturbed latency budget** — allocate against `λ' < λ` (still meets
//!   the caller's `λ`),
//! * **merge-order shuffle** — a non-zero [`AllocConfig::merge_salt`]
//!   shuffling the tie order among equal-saving merge candidates,
//! * **seeded resource bounds** — fixed per-class unit counts instead of the
//!   escalation search (only when the caller supplied none; explicit user
//!   bounds are never overridden).
//!
//! A variant that fails (e.g. seeded bounds turn out infeasible) or panics is
//! recorded in its [`VariantReport`] and skipped; it never becomes a winner
//! candidate.  If *every* variant fails, the baseline's
//! own error is returned, so degenerate configurations behave exactly like
//! the plain allocator.
//!
//! ```
//! use mwl_core::portfolio::{run_portfolio, PortfolioSpec};
//! use mwl_core::AllocConfig;
//! use mwl_model::{OpShape, SequencingGraphBuilder, SonicCostModel};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = SequencingGraphBuilder::new();
//! let x = b.add_operation(OpShape::multiplier(8, 8));
//! let y = b.add_operation(OpShape::multiplier(14, 10));
//! let s = b.add_operation(OpShape::adder(24));
//! b.add_dependency(x, s)?;
//! b.add_dependency(y, s)?;
//! let graph = b.build()?;
//! let cost = SonicCostModel::default();
//!
//! let outcome = run_portfolio(
//!     &cost,
//!     &graph,
//!     &AllocConfig::new(12),
//!     PortfolioSpec::new(42, 8),
//!     2, // worker threads; never affects the result
//! )?;
//! assert!(outcome.best.datapath.latency() <= 12);
//! assert!(outcome.best.datapath.area() <= outcome.variant0_area.unwrap());
//! # Ok(())
//! # }
//! ```

use std::any::Any;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dpalloc::{AllocConfig, AllocOutcome, DpAllocator, RefinementPolicy};
use crate::error::AllocError;
use crate::fingerprint::{datapath_fingerprint, StableHasher};
use crate::scratch::{with_warm_scratch, AllocScratch};
use mwl_model::{Area, CostModel, Cycles, ResourceClass, SequencingGraph};
use mwl_obs::{ArgValue, Stage};
use mwl_sched::{critical_path_length, OpLatencies, SchedulePriority};

/// Upper bound on the number of variants a single portfolio run will
/// generate; requests beyond it are clamped (a runaway-config backstop, far
/// above any useful portfolio size).
pub const MAX_VARIANTS: usize = 1024;

/// A portfolio request: how many variants to race and the seed their PRNG
/// streams derive from.  This pair — not the worker count — is the job
/// identity: results are a pure function of `(graph, base config, seed,
/// variants)`, so deduplication keys hash exactly these fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PortfolioSpec {
    /// Master seed; each variant's stream is derived from `(seed, index)`.
    pub seed: u64,
    /// Number of variants to race (variant 0 is always the baseline).
    /// `0` is treated as `1`: the baseline alone.
    pub variants: usize,
}

impl PortfolioSpec {
    /// Creates a spec.
    #[must_use]
    pub fn new(seed: u64, variants: usize) -> Self {
        PortfolioSpec { seed, variants }
    }

    /// The number of variants actually raced (clamped to `1..=MAX_VARIANTS`).
    #[must_use]
    pub fn effective_variants(&self) -> usize {
        self.variants.clamp(1, MAX_VARIANTS)
    }

    /// Absorbs the spec into a hasher (for composing dedup keys).
    pub fn fingerprint_into(&self, h: &mut StableHasher) {
        h.write_u64(self.seed);
        h.write_u64(self.effective_variants() as u64);
    }
}

/// The pinned PRNG stream for one variant: a stable hash of the master seed
/// and the variant index.  Streams are independent of the total variant
/// count, so growing `N` leaves variants `0..N-1` untouched.
#[must_use]
fn derive_stream(seed: u64, variant: usize) -> u64 {
    let mut h = StableHasher::new();
    h.write_str("mwl.portfolio.stream");
    h.write_u64(seed);
    h.write_u64(variant as u64);
    h.finish()
}

/// One racing variant: a deterministic mutation of the base configuration.
#[derive(Debug, Clone)]
pub struct VariantSpec {
    /// Variant index (0 = baseline).
    pub id: usize,
    /// Human-readable mutation summary, e.g. `"no_growth+lambda-2"`.
    pub label: String,
    /// The full allocator configuration this variant runs.
    pub config: AllocConfig,
}

/// Generates the variant list for a portfolio run.  Pure: depends only on
/// the graph, cost model, base configuration and spec — never on thread
/// timing — which is what makes the whole search reproducible.
#[must_use]
pub fn variant_specs(
    graph: &SequencingGraph,
    cost: &dyn CostModel,
    base: &AllocConfig,
    spec: PortfolioSpec,
) -> Vec<VariantSpec> {
    let n = spec.effective_variants();
    let native = OpLatencies::from_fn(graph, |op| cost.native_latency(op.shape()));
    let lambda_min = critical_path_length(graph, &native);
    let slack = base.latency_constraint.saturating_sub(lambda_min);
    let mut class_ops: BTreeMap<ResourceClass, usize> = BTreeMap::new();
    for op in graph.operations() {
        *class_ops
            .entry(ResourceClass::for_kind(op.kind()))
            .or_insert(0) += 1;
    }

    let mut specs = Vec::with_capacity(n);
    specs.push(VariantSpec {
        id: 0,
        label: "baseline".to_string(),
        config: base.clone(),
    });
    for id in 1..n {
        let mut rng = StdRng::seed_from_u64(derive_stream(spec.seed, id));
        specs.push(mutate(base, id, slack, &class_ops, &mut rng));
    }
    specs
}

/// Draws one mutated variant from the given stream.  Axis draw order is
/// fixed; re-drawn wholesale (up to a bounded number of attempts) when no
/// axis fired, so every non-baseline variant differs from the base
/// configuration.
fn mutate(
    base: &AllocConfig,
    id: usize,
    slack: Cycles,
    class_ops: &BTreeMap<ResourceClass, usize>,
    rng: &mut StdRng,
) -> VariantSpec {
    let mut no_growth = false;
    let mut first_refinable = false;
    let mut input_order = false;
    let mut lambda_delta: Cycles = 0;
    let mut merge_salt: u64 = 0;
    let mut bounds: Option<BTreeMap<ResourceClass, usize>> = None;

    for attempt in 0..8 {
        no_growth = rng.gen_bool(0.45);
        first_refinable = rng.gen_bool(0.40);
        input_order = rng.gen_bool(0.30);
        lambda_delta = if slack > 0 && rng.gen_bool(0.35) {
            rng.gen_range(1..=slack.min(4))
        } else {
            0
        };
        merge_salt = if rng.gen_bool(0.35) {
            rng.gen_range(1..=u64::MAX)
        } else {
            0
        };
        // Never override bounds the caller supplied explicitly.
        bounds = if base.resource_bounds.is_none() && rng.gen_bool(0.25) {
            Some(
                class_ops
                    .iter()
                    .map(|(&class, &cap)| (class, rng.gen_range(1..=cap.clamp(1, 3))))
                    .collect(),
            )
        } else {
            None
        };
        let mutated = no_growth
            || first_refinable
            || input_order
            || lambda_delta > 0
            || merge_salt != 0
            || bounds.is_some();
        if mutated || attempt == 7 {
            break;
        }
    }
    if !(no_growth
        || first_refinable
        || input_order
        || lambda_delta > 0
        || merge_salt != 0
        || bounds.is_some())
    {
        // Pathological stream: force a deterministic mutation.
        no_growth = true;
        first_refinable = true;
    }

    let mut config = base.clone();
    let mut parts: Vec<String> = Vec::new();
    if no_growth {
        config.bind_options.grow_cliques = false;
        parts.push("no_growth".to_string());
    }
    if first_refinable {
        config.refinement = RefinementPolicy::FirstRefinable;
        parts.push("first_refinable".to_string());
    }
    if input_order {
        config.priority = SchedulePriority::InputOrder;
        parts.push("input_order".to_string());
    }
    if lambda_delta > 0 {
        config.latency_constraint -= lambda_delta;
        parts.push(format!("lambda-{lambda_delta}"));
    }
    if merge_salt != 0 {
        config.merge_salt = merge_salt;
        parts.push("merge_shuffle".to_string());
    }
    if let Some(b) = bounds {
        let desc: Vec<String> = b.iter().map(|(c, n)| format!("{c}:{n}")).collect();
        config.resource_bounds = Some(b);
        parts.push(format!("bounds[{}]", desc.join(",")));
    }
    VariantSpec {
        id,
        label: parts.join("+"),
        config,
    }
}

/// The winner tie-break key: candidates are compared by `(area, latency,
/// datapath fingerprint, variant id)` — a total order with no trace of
/// arrival time, so the portfolio winner is independent of thread
/// interleaving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CandidateKey {
    /// Total datapath area (the primary objective).
    pub area: Area,
    /// Achieved overall latency.
    pub latency: Cycles,
    /// [`datapath_fingerprint`] of the design.
    pub fingerprint: u64,
    /// Index of the variant that produced it.
    pub variant: usize,
}

impl CandidateKey {
    fn of(outcome: &AllocOutcome, variant: usize) -> Self {
        CandidateKey {
            area: outcome.datapath.area(),
            latency: outcome.datapath.latency(),
            fingerprint: datapath_fingerprint(&outcome.datapath),
            variant,
        }
    }
}

/// How one variant's run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VariantStatus {
    /// The variant produced a feasible datapath.
    Solved {
        /// Its total area.
        area: Area,
        /// Its achieved latency.
        latency: Cycles,
        /// Its [`datapath_fingerprint`].
        fingerprint: u64,
    },
    /// The variant returned an [`AllocError`] (rendered).
    Failed(String),
    /// The variant panicked (payload rendered); isolated by `catch_unwind`.
    Panicked(String),
}

/// Per-variant record in a [`PortfolioOutcome`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VariantReport {
    /// Variant index.
    pub id: usize,
    /// The variant's mutation label.
    pub label: String,
    /// How the run ended.
    pub status: VariantStatus,
}

/// The result of a portfolio run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortfolioOutcome {
    /// The winning variant's full allocation outcome.
    pub best: AllocOutcome,
    /// The winner's tie-break key (`winner_key.variant` is the winner id).
    pub winner_key: CandidateKey,
    /// Variant 0's area, when the baseline solved (`best` area is `≤` this).
    pub variant0_area: Option<Area>,
    /// One report per raced variant, in variant order.
    pub reports: Vec<VariantReport>,
}

impl PortfolioOutcome {
    /// The winning variant's index.
    #[must_use]
    pub fn winner(&self) -> usize {
        self.winner_key.variant
    }

    /// Area saved relative to the baseline variant (0 when the baseline won
    /// or did not solve).
    #[must_use]
    pub fn area_saved(&self) -> Area {
        self.variant0_area
            .map_or(0, |a| a.saturating_sub(self.winner_key.area))
    }

    /// Number of variants that solved.
    #[must_use]
    pub fn solved(&self) -> usize {
        self.reports
            .iter()
            .filter(|r| matches!(r.status, VariantStatus::Solved { .. }))
            .count()
    }

    /// Number of variants that failed or panicked.
    #[must_use]
    pub fn failed(&self) -> usize {
        self.reports.len() - self.solved()
    }
}

/// Compact portfolio statistics for job reports and the wire format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortfolioStats {
    /// The master seed.
    pub seed: u64,
    /// Variants raced.
    pub variants: usize,
    /// Variants that solved.
    pub solved: usize,
    /// Variants that failed or panicked.
    pub failed: usize,
    /// Winning variant index.
    pub winner: usize,
    /// The winner's mutation label.
    pub winner_label: String,
    /// Variant 0's area when it solved.
    pub variant0_area: Option<Area>,
    /// Area saved relative to variant 0.
    pub area_saved: Area,
}

impl PortfolioStats {
    /// Summarises an outcome.
    #[must_use]
    pub fn from_outcome(seed: u64, outcome: &PortfolioOutcome) -> Self {
        PortfolioStats {
            seed,
            variants: outcome.reports.len(),
            solved: outcome.solved(),
            failed: outcome.failed(),
            winner: outcome.winner(),
            winner_label: outcome.reports[outcome.winner()].label.clone(),
            variant0_area: outcome.variant0_area,
            area_saved: outcome.area_saved(),
        }
    }
}

/// Internal per-variant run record (keeps the typed error for propagation).
#[derive(Debug)]
enum VariantRun {
    Solved(AllocOutcome),
    Failed(AllocError),
    Panicked(String),
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic payload".to_string())
    }
}

/// Runs one variant with panic isolation.  The hook runs *inside* the
/// isolation boundary, so a panicking hook is recorded exactly like a
/// panicking allocator.
fn execute(
    cost: &dyn CostModel,
    graph: &SequencingGraph,
    spec: &VariantSpec,
    hook: &(dyn Fn(&mut VariantSpec) + Sync),
    scratch: &mut AllocScratch,
) -> VariantRun {
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut spec = spec.clone();
        hook(&mut spec);
        DpAllocator::new(cost, spec.config).allocate_with_scratch(graph, scratch)
    }));
    match result {
        Ok(Ok(outcome)) => VariantRun::Solved(outcome),
        Ok(Err(e)) => VariantRun::Failed(e),
        Err(payload) => VariantRun::Panicked(panic_message(payload.as_ref())),
    }
}

/// Races the portfolio and returns the winning outcome.
///
/// `workers` is purely an execution knob: any value produces bit-identical
/// results because the winner is selected by the arrival-independent
/// [`CandidateKey`] order.  `workers <= 1` runs the variants inline on the
/// calling thread's warm scratch ([`with_warm_scratch`]) — the batch
/// driver's choice, as its jobs are already spread across a worker pool.
///
/// # Errors
///
/// When no variant solves, the baseline variant's own [`AllocError`] is
/// returned (so e.g. an unachievable `λ` reports [`AllocError::LatencyUnachievable`]
/// exactly like [`DpAllocator::allocate_with_stats`]); if the baseline
/// panicked under a fault-injection hook, the first typed error among the
/// other variants, or [`AllocError::PortfolioExhausted`] as a last resort.
pub fn run_portfolio(
    cost: &(dyn CostModel + Sync),
    graph: &SequencingGraph,
    base: &AllocConfig,
    spec: PortfolioSpec,
    workers: usize,
) -> Result<PortfolioOutcome, AllocError> {
    run_portfolio_with_hook(cost, graph, base, spec, workers, &|_| {})
}

/// [`run_portfolio`] with a fault-injection hook applied to every variant
/// spec just before it runs, inside the panic-isolation boundary.  Tests use
/// this to make chosen variants panic or exhaust their iteration budget;
/// production callers use [`run_portfolio`], whose hook is a no-op.
pub fn run_portfolio_with_hook(
    cost: &(dyn CostModel + Sync),
    graph: &SequencingGraph,
    base: &AllocConfig,
    spec: PortfolioSpec,
    workers: usize,
    hook: &(dyn Fn(&mut VariantSpec) + Sync),
) -> Result<PortfolioOutcome, AllocError> {
    run_portfolio_inner(cost, graph, base, spec, workers, hook, None)
}

/// [`run_portfolio`] running the inline (`workers <= 1`) path through a
/// caller-owned [`AllocScratch`], reusing its buffers and — when the
/// scratch's stage recorder is on — crediting each variant's wall time to
/// [`Stage::Variant`] (the trace event carries a `variant` argument).  The
/// returned outcome is bit-identical to [`run_portfolio`]: the recorder is
/// write-only for the racing variants.
///
/// The threaded path (`workers > 1`) still uses fresh per-thread scratches
/// and records no per-variant timing; the batch driver always races inline
/// because its jobs already spread across a worker pool.
///
/// # Errors
///
/// Same conditions as [`run_portfolio`].
pub fn run_portfolio_with_scratch(
    cost: &(dyn CostModel + Sync),
    graph: &SequencingGraph,
    base: &AllocConfig,
    spec: PortfolioSpec,
    workers: usize,
    scratch: &mut AllocScratch,
) -> Result<PortfolioOutcome, AllocError> {
    run_portfolio_inner(cost, graph, base, spec, workers, &|_| {}, Some(scratch))
}

fn run_portfolio_inner(
    cost: &(dyn CostModel + Sync),
    graph: &SequencingGraph,
    base: &AllocConfig,
    spec: PortfolioSpec,
    workers: usize,
    hook: &(dyn Fn(&mut VariantSpec) + Sync),
    caller_scratch: Option<&mut AllocScratch>,
) -> Result<PortfolioOutcome, AllocError> {
    let specs = variant_specs(graph, cost, base, spec);
    let n = specs.len();

    let runs: Vec<VariantRun> = if workers <= 1 || n == 1 {
        let race = |scratch: &mut AllocScratch| {
            let mut runs = Vec::with_capacity(n);
            for vs in &specs {
                let variant_timer = scratch.obs.start();
                let run = execute(cost, graph, vs, hook, scratch);
                scratch.obs.stop_with(Stage::Variant, variant_timer, || {
                    vec![("variant", ArgValue::Int(vs.id as i64))]
                });
                runs.push(run);
            }
            runs
        };
        match caller_scratch {
            Some(scratch) => race(scratch),
            None => with_warm_scratch(race),
        }
    } else {
        let slots: Vec<OnceLock<VariantRun>> = (0..n).map(|_| OnceLock::new()).collect();
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..workers.min(n) {
                s.spawn(|| {
                    let mut scratch = AllocScratch::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        slots[i]
                            .set(execute(cost, graph, &specs[i], hook, &mut scratch))
                            .expect("each variant index is claimed exactly once");
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("all workers joined"))
            .collect()
    };

    // Deterministic winner selection: a scan over the per-variant results in
    // variant order under the arrival-independent `CandidateKey` order.
    let mut reports = Vec::with_capacity(n);
    let mut best: Option<(CandidateKey, AllocOutcome)> = None;
    let mut variant0_area = None;
    let mut variant0_error: Option<AllocError> = None;
    let mut first_error: Option<AllocError> = None;
    for (spec, run) in specs.iter().zip(runs) {
        let status = match run {
            VariantRun::Solved(outcome) => {
                let key = CandidateKey::of(&outcome, spec.id);
                if spec.id == 0 {
                    variant0_area = Some(key.area);
                }
                let status = VariantStatus::Solved {
                    area: key.area,
                    latency: key.latency,
                    fingerprint: key.fingerprint,
                };
                if best.as_ref().is_none_or(|(bk, _)| key < *bk) {
                    best = Some((key, outcome));
                }
                status
            }
            VariantRun::Failed(e) => {
                if spec.id == 0 {
                    variant0_error = Some(e.clone());
                }
                if first_error.is_none() {
                    first_error = Some(e.clone());
                }
                VariantStatus::Failed(e.to_string())
            }
            VariantRun::Panicked(msg) => VariantStatus::Panicked(msg),
        };
        reports.push(VariantReport {
            id: spec.id,
            label: spec.label.clone(),
            status,
        });
    }

    match best {
        Some((winner_key, best)) => Ok(PortfolioOutcome {
            best,
            winner_key,
            variant0_area,
            reports,
        }),
        None => Err(variant0_error
            .or(first_error)
            .unwrap_or(AllocError::PortfolioExhausted { variants: n })),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwl_model::{OpShape, SequencingGraphBuilder, SonicCostModel};
    use mwl_tgff::{TgffConfig, TgffGenerator};

    fn cost() -> SonicCostModel {
        SonicCostModel::default()
    }

    fn sample() -> SequencingGraph {
        let mut b = SequencingGraphBuilder::new();
        let m1 = b.add_operation(OpShape::multiplier(8, 8));
        let m2 = b.add_operation(OpShape::multiplier(16, 12));
        let a = b.add_operation(OpShape::adder(24));
        b.add_dependency(m1, a).unwrap();
        b.add_dependency(m2, a).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn streams_are_distinct_and_stable() {
        let a = derive_stream(7, 0);
        assert_eq!(a, derive_stream(7, 0));
        assert_ne!(a, derive_stream(7, 1));
        assert_ne!(a, derive_stream(8, 0));
    }

    #[test]
    fn variant_zero_is_the_unmodified_base() {
        let g = sample();
        let c = cost();
        let base = AllocConfig::new(12);
        let specs = variant_specs(&g, &c, &base, PortfolioSpec::new(3, 6));
        assert_eq!(specs.len(), 6);
        assert_eq!(specs[0].label, "baseline");
        assert_eq!(specs[0].config.latency_constraint, 12);
        assert_eq!(specs[0].config.merge_salt, 0);
        // Every other variant carries at least one mutation.
        for s in &specs[1..] {
            assert!(!s.label.is_empty(), "variant {} has no mutation", s.id);
        }
    }

    #[test]
    fn specs_are_count_prefix_stable() {
        // Growing N must not perturb earlier variants.
        let g = sample();
        let c = cost();
        let base = AllocConfig::new(12);
        let small = variant_specs(&g, &c, &base, PortfolioSpec::new(9, 4));
        let large = variant_specs(&g, &c, &base, PortfolioSpec::new(9, 10));
        for (s, l) in small.iter().zip(&large) {
            assert_eq!(s.label, l.label);
            assert_eq!(s.config.latency_constraint, l.config.latency_constraint);
            assert_eq!(s.config.merge_salt, l.config.merge_salt);
        }
    }

    #[test]
    fn user_bounds_are_never_overridden() {
        let g = sample();
        let c = cost();
        let bounds = BTreeMap::from([(ResourceClass::Multiplier, 2), (ResourceClass::Adder, 1)]);
        let base = AllocConfig::new(12).with_resource_bounds(bounds.clone());
        for s in variant_specs(&g, &c, &base, PortfolioSpec::new(5, 32)) {
            assert_eq!(s.config.resource_bounds.as_ref(), Some(&bounds));
        }
    }

    #[test]
    fn lambda_perturbations_stay_achievable() {
        let g = sample();
        let c = cost();
        let native = OpLatencies::from_fn(&g, |op| c.native_latency(op.shape()));
        let lmin = critical_path_length(&g, &native);
        let base = AllocConfig::new(lmin + 3);
        for s in variant_specs(&g, &c, &base, PortfolioSpec::new(11, 64)) {
            assert!(s.config.latency_constraint >= lmin, "variant {}", s.id);
            assert!(s.config.latency_constraint <= lmin + 3);
        }
    }

    #[test]
    fn portfolio_error_matches_plain_allocator_on_unachievable_lambda() {
        let g = sample();
        let c = cost();
        let base = AllocConfig::new(1);
        let plain = DpAllocator::new(&c, base.clone())
            .allocate_with_stats(&g)
            .unwrap_err();
        for workers in [1, 4] {
            let err = run_portfolio(&c, &g, &base, PortfolioSpec::new(0, 6), workers).unwrap_err();
            assert_eq!(err, plain);
        }
    }

    #[test]
    fn random_graphs_portfolio_never_loses_to_baseline() {
        let c = cost();
        let mut generator = TgffGenerator::new(TgffConfig::with_ops(10), 77);
        for i in 0..6 {
            let g = generator.generate();
            let native = OpLatencies::from_fn(&g, |op| c.native_latency(op.shape()));
            let lam = critical_path_length(&g, &native) + (i % 4) * 3;
            let base = AllocConfig::new(lam);
            let baseline = DpAllocator::new(&c, base.clone())
                .allocate_with_stats(&g)
                .unwrap();
            let outcome =
                run_portfolio(&c, &g, &base, PortfolioSpec::new(u64::from(i), 8), 2).unwrap();
            assert!(outcome.best.datapath.area() <= baseline.datapath.area());
            assert!(outcome.best.datapath.latency() <= lam);
            assert_eq!(outcome.variant0_area, Some(baseline.datapath.area()));
            outcome.best.datapath.validate(&g, &c).unwrap();
            if outcome.winner() == 0 {
                assert_eq!(outcome.best, baseline);
            }
        }
    }
}

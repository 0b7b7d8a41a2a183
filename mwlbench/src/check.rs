//! Output checks, run after the timed regions.
//!
//! Every job a run timed is solved once more here, directly and against the
//! uncached cost model, and the run's outputs must agree with it:
//!
//! * the stats the timed path reported (area, latency, instances, decision
//!   counts) equal the direct solve's;
//! * the datapath passes [`mwl_core::Datapath::validate`] and meets its λ;
//! * the datapath is bit-exact in RTL ([`mwl_rtl::check_equivalence`]) on
//!   seeded stimulus vectors;
//! * where asked, its fingerprint is compared with the frozen
//!   [`mwl_core::reference`] allocator's.  Differences are counted and
//!   listed, not failed: the live allocator and the frozen reference
//!   disagree on a few graphs (one paper_mix job in about 36000, about one
//!   72-op Layered graph in fifty; see `README.md`), and a benchmark that
//!   fails on a known program defect cannot measure anything.

use std::time::Instant;

use mwl_core::{
    datapath_fingerprint, reference, run_portfolio_with_scratch, AllocConfig, AllocOutcome,
    AllocScratch, Datapath, DpAllocator,
};
use mwl_driver::{solve_job, BatchJob, JobStats};
use mwl_model::{CostModel, SequencingGraph, SonicCostModel};

/// Stimulus vectors simulated per RTL check.
pub const RTL_VECTORS: usize = 8;

/// The job's allocator configuration with its λ resolved.
#[must_use]
pub fn resolved_config(job: &BatchJob, cost: &dyn CostModel) -> AllocConfig {
    let mut config = job.config.clone();
    config.latency_constraint = job.latency.resolve(&job.graph, cost);
    config
}

/// Reusable state of a check pass.
#[derive(Debug)]
pub struct Checker {
    cost: SonicCostModel,
    scratch: AllocScratch,
    /// Microseconds of each RTL equivalence check.
    pub rtl_us: Vec<f64>,
    /// `(start, duration)` of each RTL check, for trace spans.
    pub rtl_spans: Vec<(Instant, f64)>,
    /// Jobs compared with the frozen reference.
    pub reference_compared: usize,
    /// Jobs whose datapath differs from the frozen reference's, or that the
    /// reference could not solve.
    pub reference_divergent: Vec<String>,
}

impl Default for Checker {
    fn default() -> Self {
        Checker {
            cost: SonicCostModel::default(),
            scratch: AllocScratch::new(),
            rtl_us: Vec::new(),
            rtl_spans: Vec::new(),
            reference_compared: 0,
            reference_divergent: Vec::new(),
        }
    }
}

impl Checker {
    /// What `mwl_driver`'s shared solve path returns for the job when run
    /// directly on the uncached model: the expected stats.
    ///
    /// # Errors
    ///
    /// The allocation error, as text.
    pub fn expected(&mut self, index: usize, job: &BatchJob) -> Result<JobStats, String> {
        solve_job(index, job, &self.cost, 1, &mut self.scratch)
            .result
            .map_err(|e| format!("{}: {e}", job.label))
    }

    /// One summary line on the frozen-reference comparison.
    #[must_use]
    pub fn reference_note(&self) -> String {
        let mut note = format!(
            "frozen-reference fingerprints: {} jobs compared, {} differ (reported, not failed)",
            self.reference_compared,
            self.reference_divergent.len(),
        );
        for d in self.reference_divergent.iter().take(5) {
            note.push_str("; ");
            note.push_str(d);
        }
        note
    }

    /// Checks `reported` against a direct solve of the job and checks the
    /// datapath itself; `with_reference` adds the frozen-reference
    /// fingerprint comparison (plain jobs only; a difference is recorded in
    /// [`reference_divergent`](Self::reference_divergent)).
    ///
    /// # Errors
    ///
    /// A description of the first mismatch.
    pub fn check_job(
        &mut self,
        index: usize,
        job: &BatchJob,
        reported: &JobStats,
        with_reference: bool,
    ) -> Result<(), String> {
        let config = resolved_config(job, &self.cost);
        let label = &job.label;
        let outcome = match job.portfolio {
            Some(spec) => run_portfolio_with_scratch(
                &self.cost,
                &job.graph,
                &config,
                spec,
                1,
                &mut self.scratch,
            )
            .map(|p| p.best),
            None => DpAllocator::new(&self.cost, config.clone())
                .allocate_with_scratch(&job.graph, &mut self.scratch),
        }
        .map_err(|e| format!("{label}: direct solve failed: {e}"))?;
        compare_stats(label, reported, &outcome, config.latency_constraint)?;
        self.check_datapath(
            index,
            &job.graph,
            &outcome.datapath,
            config.latency_constraint,
        )
        .map_err(|e| format!("{label}: {e}"))?;
        if with_reference && job.portfolio.is_none() {
            self.reference_compared += 1;
            match reference::allocate_with_stats(&self.cost, &config, &job.graph) {
                Ok(frozen)
                    if datapath_fingerprint(&frozen.datapath)
                        == datapath_fingerprint(&outcome.datapath) => {}
                Ok(_) => self.reference_divergent.push(format!(
                    "{label}: datapath differs from the frozen reference"
                )),
                Err(e) => self
                    .reference_divergent
                    .push(format!("{label}: the frozen reference fails: {e}")),
            }
        }
        Ok(())
    }

    /// Validation, λ and RTL bit-exactness of one datapath.
    ///
    /// # Errors
    ///
    /// A description of the first failure.
    fn check_datapath(
        &mut self,
        index: usize,
        graph: &SequencingGraph,
        datapath: &Datapath,
        lambda: u32,
    ) -> Result<(), String> {
        datapath
            .validate(graph, &self.cost)
            .map_err(|e| format!("invalid datapath: {e}"))?;
        if datapath.latency() > lambda {
            return Err(format!("latency {} exceeds λ {lambda}", datapath.latency()));
        }
        let vectors = mwl_rtl::random_vectors(graph, index as u64, RTL_VECTORS);
        let started = Instant::now();
        let rtl = mwl_rtl::check_equivalence(graph, datapath, &self.cost, &vectors);
        let seconds = started.elapsed().as_secs_f64();
        self.rtl_us.push(seconds * 1e6);
        self.rtl_spans.push((started, seconds));
        rtl.map(|_| ()).map_err(|e| format!("RTL mismatch: {e}"))
    }
}

/// The fields of `reported` that a direct solve determines.
fn compare_stats(
    label: &str,
    reported: &JobStats,
    direct: &AllocOutcome,
    lambda: u32,
) -> Result<(), String> {
    let d = &direct.datapath;
    let want = (
        lambda,
        d.area(),
        d.latency(),
        d.num_instances(),
        direct.refinements,
        direct.bound_escalations,
        direct.merges,
    );
    let got = (
        reported.lambda,
        reported.area,
        reported.latency,
        reported.instances,
        reported.refinements,
        reported.bound_escalations,
        reported.merges,
    );
    // A portfolio job's counts are its winning variant's on both sides.
    if want != got {
        return Err(format!(
            "{label}: reported (λ, area, latency, instances, refinements, escalations, merges) \
             {got:?}, direct solve {want:?}"
        ));
    }
    Ok(())
}

/// Compares the allocator counters of a layer-sweep outcome with the
/// expected stats of the same job.
///
/// # Errors
///
/// A description of the mismatch.
pub fn compare_outcome(
    label: &str,
    expected: &JobStats,
    outcome: &AllocOutcome,
) -> Result<(), String> {
    compare_stats(label, expected, outcome, expected.lambda)
}

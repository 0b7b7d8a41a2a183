//! Batch results: per-job outcomes and the aggregate report.

use std::fmt;

use mwl_core::{AllocError, BindingCertificate, PortfolioStats};
use mwl_model::{Area, AreaBreakdown, Cycles};
use mwl_obs::json::{Json, ObjectBuilder};

/// The outcome of the opt-in RTL equivalence oracle for one job
/// (see [`crate::BatchJob::verify_rtl`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RtlCheck {
    /// `true` when every stimulus vector was bit-identical between the
    /// netlist simulation and the reference evaluation, and the netlist
    /// area accounting matched the datapath's (FU component and full
    /// breakdown alike).
    pub passed: bool,
    /// Number of stimulus vectors simulated.
    pub vectors: usize,
    /// Result registers in the lowered netlist (after lifetime sharing).
    pub registers: usize,
    /// Operand-mux steering arms in the lowered netlist.
    pub mux_arms: usize,
    /// Width-adapter cells in the lowered netlist.
    pub adapters: usize,
    /// Optimality certificate of the netlist's register binding; `None`
    /// when the check failed before a netlist was produced.
    pub certificate: Option<BindingCertificate>,
    /// Human-readable description of the first failure, when `!passed`.
    pub failure: Option<String>,
}

/// Statistics of one successfully allocated job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobStats {
    /// Resolved latency budget `λ` the job ran with.
    pub lambda: Cycles,
    /// Datapath area (the functional-unit component; the allocator's
    /// objective).
    pub area: Area,
    /// Per-component area under the cost model's storage coefficients.
    /// With zero coefficients (the default) this collapses to
    /// `AreaBreakdown::fu_only(area)`.
    pub area_breakdown: AreaBreakdown,
    /// Optimality certificate of the datapath's register binding.
    pub certificate: BindingCertificate,
    /// Achieved overall latency (`<= lambda`).
    pub latency: Cycles,
    /// Number of resource instances in the datapath.
    pub instances: usize,
    /// Wordlength-refinement iterations performed.
    pub refinements: usize,
    /// Resource-bound escalations performed.
    pub bound_escalations: usize,
    /// Instance merges accepted by the post-bind merging pass.
    pub merges: usize,
    /// RTL equivalence-check outcome; `None` unless the job opted in via
    /// [`crate::BatchJob::verify_rtl`].
    pub rtl: Option<RtlCheck>,
    /// Portfolio-race statistics; `None` unless the job opted in via
    /// [`crate::BatchJob::portfolio`].  When present, [`area`](Self::area)
    /// is the *winning* variant's area and
    /// [`PortfolioStats::area_saved`] records how much the race improved
    /// on the plain configuration (variant 0).
    pub portfolio: Option<PortfolioStats>,
}

/// The result of one job: its label plus either stats or the allocation
/// error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobOutcome {
    /// Position of the job in the submitted batch.
    pub index: usize,
    /// The job's label.
    pub label: String,
    /// Allocation stats, or the error that failed the job.
    pub result: Result<JobStats, AllocError>,
}

/// Aggregate counters over a whole batch.
///
/// Derived deterministically from the per-job outcomes, so two
/// [`BatchReport`]s are equal exactly when all their outcomes are.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchSummary {
    /// Number of jobs in the batch.
    pub jobs: usize,
    /// Jobs that produced a datapath.
    pub succeeded: usize,
    /// Jobs that failed with an [`AllocError`].
    pub failed: usize,
    /// Sum of datapath (FU) areas over the successful jobs.
    pub total_area: Area,
    /// Component-wise sum of per-job area breakdowns over the successful
    /// jobs (`area_breakdown.fu == total_area` always holds).
    pub area_breakdown: AreaBreakdown,
    /// Sum of achieved latencies over the successful jobs.
    pub total_latency: u64,
    /// Sum of resource instances over the successful jobs.
    pub total_instances: usize,
    /// Sum of refinement iterations over the successful jobs.
    pub total_refinements: usize,
    /// Sum of bound escalations over the successful jobs.
    pub total_escalations: usize,
    /// Sum of accepted instance merges over the successful jobs.
    pub total_merges: usize,
    /// Jobs that ran the RTL equivalence oracle.
    pub rtl_checked: usize,
    /// RTL-checked jobs whose netlist was bit-identical to the reference.
    pub rtl_passed: usize,
    /// Successful jobs that raced a variant portfolio.
    pub portfolio_jobs: usize,
    /// Portfolio jobs whose winner was *not* the baseline variant.
    pub portfolio_improved: usize,
    /// Total area saved by portfolio winners relative to their baselines.
    pub portfolio_area_saved: Area,
}

/// The deterministic result of a batch run.
///
/// Outcomes are ordered by submission index, never by completion order, so a
/// report is bit-identical across worker counts (regression-tested in
/// `tests/determinism.rs`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchReport {
    /// One outcome per submitted job, in submission order.
    pub outcomes: Vec<JobOutcome>,
}

impl BatchReport {
    /// Aggregates the per-job outcomes.
    #[must_use]
    pub fn summary(&self) -> BatchSummary {
        let mut s = BatchSummary {
            jobs: self.outcomes.len(),
            ..BatchSummary::default()
        };
        for outcome in &self.outcomes {
            match &outcome.result {
                Ok(stats) => {
                    s.succeeded += 1;
                    s.total_area += stats.area;
                    s.area_breakdown.fu += stats.area_breakdown.fu;
                    s.area_breakdown.register += stats.area_breakdown.register;
                    s.area_breakdown.mux += stats.area_breakdown.mux;
                    s.total_latency += u64::from(stats.latency);
                    s.total_instances += stats.instances;
                    s.total_refinements += stats.refinements;
                    s.total_escalations += stats.bound_escalations;
                    s.total_merges += stats.merges;
                    if let Some(rtl) = &stats.rtl {
                        s.rtl_checked += 1;
                        s.rtl_passed += usize::from(rtl.passed);
                    }
                    if let Some(p) = &stats.portfolio {
                        s.portfolio_jobs += 1;
                        s.portfolio_improved += usize::from(p.winner != 0);
                        s.portfolio_area_saved += p.area_saved;
                    }
                }
                Err(_) => s.failed += 1,
            }
        }
        s
    }

    /// The outcomes of failed jobs.
    #[must_use]
    pub fn failures(&self) -> Vec<&JobOutcome> {
        self.outcomes.iter().filter(|o| o.result.is_err()).collect()
    }

    /// The report as a JSON value; [`Json::encode_pretty`] prints it with
    /// one line per outcome.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let s = self.summary();
        let summary = ObjectBuilder::new()
            .field("jobs", s.jobs)
            .field("succeeded", s.succeeded)
            .field("failed", s.failed)
            .field("total_area", s.total_area)
            .field("area_breakdown", area_breakdown_json(&s.area_breakdown))
            .field("total_latency", s.total_latency)
            .field("total_instances", s.total_instances)
            .field("total_refinements", s.total_refinements)
            .field("total_escalations", s.total_escalations)
            .field("total_merges", s.total_merges)
            .field("rtl_checked", s.rtl_checked)
            .field("rtl_passed", s.rtl_passed)
            .field("portfolio_jobs", s.portfolio_jobs)
            .field("portfolio_improved", s.portfolio_improved)
            .field("portfolio_area_saved", s.portfolio_area_saved);
        ObjectBuilder::new()
            .field("summary", summary.build())
            .field(
                "outcomes",
                self.outcomes
                    .iter()
                    .map(JobOutcome::to_json)
                    .collect::<Json>(),
            )
            .build()
    }
}

impl JobOutcome {
    /// The outcome as one JSON object of the batch report.
    fn to_json(&self) -> Json {
        let outcome = ObjectBuilder::new()
            .field("index", self.index)
            .field("label", self.label.as_str());
        let st = match &self.result {
            Ok(st) => st,
            Err(e) => {
                return outcome
                    .field("ok", false)
                    .field("error", e.to_string())
                    .build()
            }
        };
        let mut outcome = outcome
            .field("ok", true)
            .field("lambda", st.lambda)
            .field("area", st.area)
            .field("area_breakdown", area_breakdown_json(&st.area_breakdown))
            .field("certificate", st.certificate.as_str())
            .field("latency", st.latency)
            .field("instances", st.instances)
            .field("refinements", st.refinements)
            .field("escalations", st.bound_escalations)
            .field("merges", st.merges);
        if let Some(rtl) = &st.rtl {
            let mut check = ObjectBuilder::new()
                .field("passed", rtl.passed)
                .field("vectors", rtl.vectors)
                .field("registers", rtl.registers)
                .field("mux_arms", rtl.mux_arms)
                .field("adapters", rtl.adapters);
            if let Some(cert) = rtl.certificate {
                check = check.field("certificate", cert.as_str());
            }
            if let Some(failure) = &rtl.failure {
                check = check.field("failure", failure.as_str());
            }
            outcome = outcome.field("rtl", check.build());
        }
        if let Some(p) = &st.portfolio {
            let mut portfolio = ObjectBuilder::new()
                .field("seed", p.seed)
                .field("variants", p.variants)
                .field("solved", p.solved)
                .field("failed", p.failed)
                .field("winner", p.winner)
                .field("winner_label", p.winner_label.as_str())
                .field("area_saved", p.area_saved);
            if let Some(v0) = p.variant0_area {
                portfolio = portfolio.field("variant0_area", v0);
            }
            outcome = outcome.field("portfolio", portfolio.build());
        }
        outcome.build()
    }
}

/// An area breakdown as the `{"fu", "register", "mux"}` object every
/// report file and the wire protocol carry.
#[must_use]
pub fn area_breakdown_json(b: &AreaBreakdown) -> Json {
    ObjectBuilder::new()
        .field("fu", b.fu)
        .field("register", b.register)
        .field("mux", b.mux)
        .build()
}

impl fmt::Display for BatchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.summary();
        writeln!(
            f,
            "batch: {} jobs, {} ok, {} failed, total area {}, {} merges",
            s.jobs, s.succeeded, s.failed, s.total_area, s.total_merges
        )?;
        for o in &self.outcomes {
            match &o.result {
                Ok(st) => {
                    let rtl = match &st.rtl {
                        Some(r) if r.passed => "  rtl ok".to_string(),
                        Some(r) => format!(
                            "  rtl FAIL ({})",
                            r.failure.as_deref().unwrap_or("unknown divergence")
                        ),
                        None => String::new(),
                    };
                    let portfolio = match &st.portfolio {
                        Some(p) if p.winner != 0 => {
                            format!("  portfolio -{} ({})", p.area_saved, p.winner_label)
                        }
                        Some(_) => "  portfolio =baseline".to_string(),
                        None => String::new(),
                    };
                    writeln!(
                        f,
                        "  [{:>3}] {:<28} area {:>8}  latency {:>4}/{:<4} instances \
                         {:>3}{rtl}{portfolio}",
                        o.index, o.label, st.area, st.latency, st.lambda, st.instances
                    )?;
                }
                Err(e) => writeln!(f, "  [{:>3}] {:<28} FAILED: {e}", o.index, o.label)?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> BatchReport {
        BatchReport {
            outcomes: vec![
                JobOutcome {
                    index: 0,
                    label: "a".into(),
                    result: Ok(JobStats {
                        lambda: 10,
                        area: 100,
                        area_breakdown: AreaBreakdown {
                            fu: 100,
                            register: 24,
                            mux: 12,
                        },
                        certificate: BindingCertificate::Optimal,
                        latency: 9,
                        instances: 3,
                        refinements: 2,
                        bound_escalations: 1,
                        merges: 1,
                        rtl: Some(RtlCheck {
                            passed: true,
                            vectors: 4,
                            registers: 3,
                            mux_arms: 6,
                            adapters: 2,
                            certificate: Some(BindingCertificate::Optimal),
                            failure: None,
                        }),
                        portfolio: Some(PortfolioStats {
                            seed: 42,
                            variants: 6,
                            solved: 5,
                            failed: 1,
                            winner: 3,
                            winner_label: "no_growth+merge_shuffle".into(),
                            variant0_area: Some(112),
                            area_saved: 12,
                        }),
                    }),
                },
                JobOutcome {
                    index: 1,
                    label: "b\"quoted\"".into(),
                    result: Err(AllocError::LatencyUnachievable {
                        constraint: 1,
                        minimum: 5,
                    }),
                },
            ],
        }
    }

    #[test]
    fn summary_aggregates() {
        let r = sample_report();
        let s = r.summary();
        assert_eq!(s.jobs, 2);
        assert_eq!(s.succeeded, 1);
        assert_eq!(s.failed, 1);
        assert_eq!(s.total_area, 100);
        assert_eq!(
            s.area_breakdown,
            AreaBreakdown {
                fu: 100,
                register: 24,
                mux: 12
            }
        );
        assert_eq!(s.area_breakdown.fu, s.total_area);
        assert_eq!(s.total_merges, 1);
        assert_eq!(s.rtl_checked, 1);
        assert_eq!(s.rtl_passed, 1);
        assert_eq!(s.portfolio_jobs, 1);
        assert_eq!(s.portfolio_improved, 1);
        assert_eq!(s.portfolio_area_saved, 12);
        assert_eq!(r.failures().len(), 1);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let json = sample_report().to_json().encode_pretty();
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"jobs\": 2"));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"ok\": false"));
        assert!(json.contains("\"rtl_checked\": 1"));
        assert!(json.contains("\"rtl\": {\"passed\": true"));
        assert!(json.contains("\"area_breakdown\": {\"fu\": 100, \"register\": 24, \"mux\": 12}"));
        assert!(json.contains("\"certificate\": \"optimal\""));
        assert!(json.contains("\"portfolio_jobs\": 1"));
        assert!(json.contains(
            "\"portfolio\": {\"seed\": 42, \"variants\": 6, \"solved\": 5, \"failed\": 1, \
             \"winner\": 3, \"winner_label\": \"no_growth+merge_shuffle\", \"area_saved\": 12, \
             \"variant0_area\": 112}"
        ));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
    }

    #[test]
    fn display_lists_every_job() {
        let text = sample_report().to_string();
        assert!(text.contains("2 jobs"));
        assert!(text.contains("FAILED"));
        assert!(text.contains("rtl ok"));
        assert!(text.contains("portfolio -12 (no_growth+merge_shuffle)"));
    }

    #[test]
    fn baseline_winning_portfolio_is_not_counted_as_improved() {
        let mut r = sample_report();
        if let Ok(st) = &mut r.outcomes[0].result {
            st.portfolio = Some(PortfolioStats {
                seed: 1,
                variants: 4,
                solved: 4,
                failed: 0,
                winner: 0,
                winner_label: "baseline".into(),
                variant0_area: Some(100),
                area_saved: 0,
            });
        }
        let s = r.summary();
        assert_eq!(s.portfolio_jobs, 1);
        assert_eq!(s.portfolio_improved, 0);
        assert_eq!(s.portfolio_area_saved, 0);
        assert!(r.to_string().contains("portfolio =baseline"));
        assert!(r
            .to_json()
            .encode_pretty()
            .contains("\"winner_label\": \"baseline\""));
    }

    #[test]
    fn failed_rtl_check_is_visible() {
        let mut r = sample_report();
        if let Ok(st) = &mut r.outcomes[0].result {
            st.rtl = Some(RtlCheck {
                passed: false,
                vectors: 4,
                registers: 3,
                mux_arms: 6,
                adapters: 2,
                certificate: None,
                failure: Some("vector 1 diverged".into()),
            });
        }
        let s = r.summary();
        assert_eq!(s.rtl_checked, 1);
        assert_eq!(s.rtl_passed, 0);
        // The diagnostic reaches both the human-readable and JSON reports.
        assert!(r.to_string().contains("rtl FAIL (vector 1 diverged)"));
        assert!(r.to_json().encode_pretty().contains("\"passed\": false"));
        assert!(r
            .to_json()
            .encode_pretty()
            .contains("\"failure\": \"vector 1 diverged\""));
    }

    /// The report's bytes are pinned: this is the document the batch
    /// driver wrote before it was built on the JSON codec.
    #[test]
    fn json_report_bytes_are_pinned() {
        let golden = concat!(
            "{\n",
            "  \"summary\": {\"jobs\": 2, \"succeeded\": 1, \"failed\": 1, \"total_area\": 100, \"area_breakdown\": {\"fu\": 100, \"register\": 24, \"mux\": 12}, \"total_latency\": 9, \"total_instances\": 3, \"total_refinements\": 2, \"total_escalations\": 1, \"total_merges\": 1, \"rtl_checked\": 1, \"rtl_passed\": 1, \"portfolio_jobs\": 1, \"portfolio_improved\": 1, \"portfolio_area_saved\": 12},\n",
            "  \"outcomes\": [\n",
            "    {\"index\": 0, \"label\": \"a\", \"ok\": true, \"lambda\": 10, \"area\": 100, \"area_breakdown\": {\"fu\": 100, \"register\": 24, \"mux\": 12}, \"certificate\": \"optimal\", \"latency\": 9, \"instances\": 3, \"refinements\": 2, \"escalations\": 1, \"merges\": 1, \"rtl\": {\"passed\": true, \"vectors\": 4, \"registers\": 3, \"mux_arms\": 6, \"adapters\": 2, \"certificate\": \"optimal\"}, \"portfolio\": {\"seed\": 42, \"variants\": 6, \"solved\": 5, \"failed\": 1, \"winner\": 3, \"winner_label\": \"no_growth+merge_shuffle\", \"area_saved\": 12, \"variant0_area\": 112}},\n",
            "    {\"index\": 1, \"label\": \"b\\\"quoted\\\"\", \"ok\": false, \"error\": \"latency constraint 1 is below the minimum achievable latency 5\"}\n",
            "  ]\n",
            "}\n",
        );
        assert_eq!(sample_report().to_json().encode_pretty(), golden);
        let empty = BatchReport { outcomes: vec![] };
        assert!(empty
            .to_json()
            .encode_pretty()
            .ends_with("\"outcomes\": [\n  ]\n}\n"));
    }
}

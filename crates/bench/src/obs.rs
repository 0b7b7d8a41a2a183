//! The observability **gate**: telemetry must be free when off and nearly
//! free when on.
//!
//! Runs the `batch_sweep` scenario mix through the batch driver four ways —
//! observability off, off again, stage-timing mode, and full tracing — as
//! the arms of one [`measure::interleaved`] call, so they share whatever
//! clock or scheduler drift the machine has.  The gate then checks, in
//! decreasing order of hardness:
//!
//! 1. **Bit-identity** (the hard gate): the obs-off reports equal the
//!    sequential reference exactly, and the stage/trace reports equal it
//!    after dropping their purely diagnostic `stages` blocks.  A violation
//!    here means telemetry perturbed an allocation and always fails.
//! 2. **Disabled cost is statistically zero**: the two obs-off arms run
//!    *identical code*, so the relative delta of their best repetitions is a
//!    direct measurement of the machine's noise floor.  A small delta
//!    demonstrates both that the measurement can resolve the question and
//!    that the disabled no-op path costs nothing distinguishable from it.
//! 3. **Enabled overhead bounds**: stage-timing mode — the mode the driver
//!    and daemon can leave on in production — may cost at most
//!    [`ENABLED_OVERHEAD_LIMIT`] (5%) over the faster off arm; full trace
//!    mode, which materialises a heap-allocated event per span for offline
//!    inspection and is a diagnostic rather than a production mode, gets
//!    [`TRACE_OVERHEAD_LIMIT`] (10%).  The measured noise floor is added to
//!    both allowances (an overhead cannot be resolved more finely than the
//!    noise it is measured through).
//!
//! When the noise floor itself exceeds [`DISABLED_NOISE_LIMIT`] the timing
//! environment cannot answer the overhead question at all; mirroring the
//! perf gate's multi-core policy, the overhead checks are then *skipped,
//! not failed* (`status: "noisy_skipped"`), while the bit-identity gate
//! still applies.  Results land in the committed `BENCH_obs.json`.

use mwl_driver::{run_batch, run_batch_traced, BatchOptions, BatchReport};
use mwl_model::SonicCostModel;
use mwl_obs::json::{rounded, Json, ObjectBuilder};
use mwl_obs::{ObsMode, TraceSink};

use crate::batch::{scenario_jobs, BatchSweepConfig};
use crate::measure;

/// Maximum relative overhead of stage-timing mode over the obs-off baseline
/// (before the measured noise floor is added to the allowance).
pub const ENABLED_OVERHEAD_LIMIT: f64 = 0.05;

/// Maximum relative overhead of full trace mode, which additionally
/// materialises one owned event per span for offline rendering.
pub const TRACE_OVERHEAD_LIMIT: f64 = 0.10;

/// Maximum relative delta between the two obs-off arms for the measurement
/// to count as sound.  Above this the overhead checks are skipped.
pub const DISABLED_NOISE_LIMIT: f64 = 0.05;

/// Parameters of one observability-gate run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsGateConfig {
    /// The scenario mix (the same generator as `batch_sweep`).
    pub sweep: BatchSweepConfig,
    /// Label recorded in the JSON (`"batch_sweep_smoke"` / `"batch_sweep_quick"`).
    pub scenario: &'static str,
    /// Interleaved timing repetitions per arm; the fastest is kept.
    pub repetitions: usize,
}

impl ObsGateConfig {
    /// The CI configuration: the `batch_sweep` families at larger problem
    /// sizes than the throughput smoke, best of 5.  Overhead is a ratio of
    /// span bookkeeping to span *bodies*, so the mix must be heavy enough
    /// for each stage to do real work — millisecond-scale passes measure
    /// the clock, not the telemetry.
    #[must_use]
    pub fn smoke() -> Self {
        let mut sweep = BatchSweepConfig::smoke().with_graphs(4);
        sweep.sizes = vec![14, 16, 18, 20];
        ObsGateConfig {
            sweep,
            scenario: "batch_sweep_obs_smoke",
            repetitions: 5,
        }
    }

    /// A longer mix for stabler local numbers.
    #[must_use]
    pub fn quick() -> Self {
        ObsGateConfig {
            sweep: BatchSweepConfig::quick(),
            scenario: "batch_sweep_quick",
            repetitions: 3,
        }
    }
}

/// Verdict of the overhead checks (the identity checks are always hard).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsGateStatus {
    /// The measurement was sound and every overhead stayed within limits.
    Ok,
    /// The measurement was sound and an enabled mode exceeded its limit.
    OverLimit,
    /// The off/off noise floor was too high to resolve the question;
    /// overhead checks skipped, not failed.
    NoisySkipped,
}

impl ObsGateStatus {
    fn as_str(self) -> &'static str {
        match self {
            ObsGateStatus::Ok => "ok",
            ObsGateStatus::OverLimit => "over_limit",
            ObsGateStatus::NoisySkipped => "noisy_skipped",
        }
    }
}

/// Full results of an observability-gate run.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsGateResults {
    /// Scenario label.
    pub scenario: &'static str,
    /// Jobs in the mix.
    pub jobs: usize,
    /// Hardware threads visible to the process.
    pub cores: usize,
    /// Interleaved timing repetitions per arm.
    pub repetitions: usize,
    /// Best obs-off wall-clock, seconds.
    pub off_seconds: f64,
    /// Best second-obs-off wall-clock, seconds (the noise probe).
    pub off_again_seconds: f64,
    /// Best stage-mode wall-clock, seconds.
    pub stages_seconds: f64,
    /// Best trace-mode wall-clock, seconds.
    pub trace_seconds: f64,
    /// Both obs-off reports equalled the sequential reference bit for bit.
    pub identical_off: bool,
    /// Stage-mode report equalled the reference after stripping `stages`.
    pub identical_stages_stripped: bool,
    /// Trace-mode report equalled the reference after stripping `stages`.
    pub identical_trace_stripped: bool,
    /// Trace events emitted by one trace-mode pass over the mix.
    pub trace_events: usize,
}

impl ObsGateResults {
    /// Relative delta between the two obs-off arms: the noise floor.
    #[must_use]
    pub fn disabled_delta(&self) -> f64 {
        (self.off_again_seconds - self.off_seconds).abs() / self.off_seconds
    }

    /// The faster of the two obs-off arms — the overhead baseline.
    #[must_use]
    pub fn baseline_seconds(&self) -> f64 {
        self.off_seconds.min(self.off_again_seconds)
    }

    /// Relative overhead of stage mode over the baseline (can be negative
    /// in the noise).
    #[must_use]
    pub fn stages_overhead(&self) -> f64 {
        self.stages_seconds / self.baseline_seconds() - 1.0
    }

    /// Relative overhead of trace mode over the baseline.
    #[must_use]
    pub fn trace_overhead(&self) -> f64 {
        self.trace_seconds / self.baseline_seconds() - 1.0
    }

    /// Whether every identity check passed (the hard gate).
    #[must_use]
    pub fn all_identical(&self) -> bool {
        self.identical_off && self.identical_stages_stripped && self.identical_trace_stripped
    }

    /// Whether the off/off delta is small enough to call the disabled path
    /// statistically free — and the measurement sound.
    #[must_use]
    pub fn statistically_zero_disabled(&self) -> bool {
        self.disabled_delta() <= DISABLED_NOISE_LIMIT
    }

    /// Whether both enabled modes stay within their overhead limits plus
    /// the measured noise floor.
    #[must_use]
    pub fn within_enabled_limit(&self) -> bool {
        let noise = self.disabled_delta();
        self.stages_overhead() <= ENABLED_OVERHEAD_LIMIT + noise
            && self.trace_overhead() <= TRACE_OVERHEAD_LIMIT + noise
    }

    /// The overall overhead verdict (identity is judged separately).
    #[must_use]
    pub fn status(&self) -> ObsGateStatus {
        if !self.statistically_zero_disabled() {
            ObsGateStatus::NoisySkipped
        } else if self.within_enabled_limit() {
            ObsGateStatus::Ok
        } else {
            ObsGateStatus::OverLimit
        }
    }

    /// Renders a text table.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "Obs gate ({}, {} jobs, {} cores, best of {} interleaved reps)\n",
            self.scenario, self.jobs, self.cores, self.repetitions
        );
        out.push_str("arm          seconds   vs baseline\n");
        for (name, seconds, delta) in [
            ("off", self.off_seconds, 0.0),
            (
                "off again",
                self.off_again_seconds,
                (self.off_again_seconds - self.off_seconds) / self.off_seconds,
            ),
            ("stages", self.stages_seconds, self.stages_overhead()),
            ("trace", self.trace_seconds, self.trace_overhead()),
        ] {
            out.push_str(&format!(
                "{name:<12} {seconds:>8.4} {:>+12.2}%\n",
                delta * 100.0
            ));
        }
        out.push_str(&format!(
            "bit-identical: off {}, stages stripped {}, trace stripped {}\n",
            self.identical_off, self.identical_stages_stripped, self.identical_trace_stripped
        ));
        out.push_str(&format!(
            "noise floor {:.2}% (limit {:.0}%), stage limit {:.0}%+noise, trace limit {:.0}%+noise, trace events {}, status {}\n",
            self.disabled_delta() * 100.0,
            DISABLED_NOISE_LIMIT * 100.0,
            ENABLED_OVERHEAD_LIMIT * 100.0,
            TRACE_OVERHEAD_LIMIT * 100.0,
            self.trace_events,
            self.status().as_str(),
        ));
        out
    }

    /// The schema-stable `BENCH_obs.json` document.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let seconds = ObjectBuilder::new()
            .field("off", rounded(self.off_seconds, 6))
            .field("off_again", rounded(self.off_again_seconds, 6))
            .field("stages", rounded(self.stages_seconds, 6))
            .field("trace", rounded(self.trace_seconds, 6));
        let bit_identical = ObjectBuilder::new()
            .field("off", self.identical_off)
            .field("stages_stripped", self.identical_stages_stripped)
            .field("trace_stripped", self.identical_trace_stripped);
        let disabled = ObjectBuilder::new()
            .field("delta", rounded(self.disabled_delta(), 6))
            .field("noise_limit", DISABLED_NOISE_LIMIT)
            .field("statistically_zero", self.statistically_zero_disabled());
        let enabled = ObjectBuilder::new()
            .field("stages_overhead", rounded(self.stages_overhead(), 6))
            .field("trace_overhead", rounded(self.trace_overhead(), 6))
            .field("stages_limit", ENABLED_OVERHEAD_LIMIT)
            .field("trace_limit", TRACE_OVERHEAD_LIMIT)
            .field("within_limit", self.within_enabled_limit());
        ObjectBuilder::new()
            .field("schema", "mwl_obs_gate_v1")
            .field("scenario", self.scenario)
            .field("jobs", self.jobs)
            .field("cores", self.cores)
            .field("repetitions", self.repetitions)
            .field("seconds", seconds.build())
            .field("bit_identical", bit_identical.build())
            .field("disabled", disabled.build())
            .field("enabled", enabled.build())
            .field("trace_events", self.trace_events)
            .field("status", self.status().as_str())
            .build()
    }
}

/// Drops the diagnostic `stages` blocks from a report, leaving exactly the
/// allocation payload an obs-off run produces.
fn strip_stages(report: &BatchReport) -> BatchReport {
    let mut stripped = report.clone();
    for outcome in &mut stripped.outcomes {
        if let Ok(stats) = &mut outcome.result {
            stats.stages = None;
        }
    }
    stripped
}

/// Runs the full observability gate (see the module docs).  All four arms
/// run single-threaded: worker scheduling jitter would swamp the signal the
/// gate exists to measure.
#[must_use]
pub fn run_obs_gate(config: &ObsGateConfig) -> ObsGateResults {
    let cost = SonicCostModel::default();
    let jobs = scenario_jobs(&config.sweep);
    let reference = run_batch(&jobs, &cost, &BatchOptions::sequential());

    // Arms: off, off again, stages, trace.
    const TRACE: usize = 3;
    let options = [ObsMode::Off, ObsMode::Off, ObsMode::Stages, ObsMode::Trace]
        .map(|mode| BatchOptions::sequential().with_obs(mode));
    let mut identical = [true; 4];
    let mut trace_events = 0;
    let timings = measure::interleaved(
        options.len(),
        config.repetitions,
        |arm| {
            if arm == TRACE {
                let sink = TraceSink::new();
                let report = run_batch_traced(&jobs, &cost, &options[arm], Some(&sink));
                trace_events = sink.len();
                report
            } else {
                run_batch(&jobs, &cost, &options[arm])
            }
        },
        |arm, report| {
            identical[arm] &= if options[arm].obs == ObsMode::Off {
                report == reference
            } else {
                strip_stages(&report) == reference
            };
        },
    );

    ObsGateResults {
        scenario: config.scenario,
        jobs: jobs.len(),
        cores: measure::cores(),
        repetitions: config.repetitions,
        off_seconds: timings.best(0),
        off_again_seconds: timings.best(1),
        stages_seconds: timings.best(2),
        trace_seconds: timings.best(TRACE),
        identical_off: identical[0] && identical[1],
        identical_stages_stripped: identical[2],
        identical_trace_stripped: identical[TRACE],
        trace_events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ObsGateConfig {
        ObsGateConfig {
            sweep: BatchSweepConfig::smoke().with_graphs(1),
            scenario: "test_tiny",
            repetitions: 1,
        }
    }

    #[test]
    fn gate_reports_identity_and_traces() {
        let results = run_obs_gate(&tiny());
        assert!(results.all_identical());
        assert!(
            results.trace_events >= results.jobs,
            "one span per job at least"
        );
        assert!(results.off_seconds > 0.0 && results.trace_seconds > 0.0);
        // The status never panics and the noisy escape keeps the verdict
        // well-defined even on a loaded test machine.
        let _ = results.status();
    }

    #[test]
    fn json_is_schema_stable() {
        let results = run_obs_gate(&tiny());
        let json = results.to_json().encode_pretty();
        for key in [
            "\"schema\": \"mwl_obs_gate_v1\"",
            "\"scenario\": \"test_tiny\"",
            "\"seconds\": {\"off\": ",
            "\"bit_identical\": {\"off\": true, \"stages_stripped\": true, \"trace_stripped\": true}",
            "\"disabled\": {\"delta\": ",
            "\"enabled\": {\"stages_overhead\": ",
            "\"trace_events\": ",
            "\"status\": ",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(results.render_text().contains("noise floor"));
    }

    #[test]
    fn status_thresholds() {
        let mut r = run_obs_gate(&tiny());
        // Force a clean measurement and check each verdict branch.
        r.off_seconds = 1.0;
        r.off_again_seconds = 1.001;
        r.stages_seconds = 1.01;
        r.trace_seconds = 1.02;
        assert_eq!(r.status(), ObsGateStatus::Ok);
        assert!(r.statistically_zero_disabled());
        r.trace_seconds = 1.2;
        assert_eq!(r.status(), ObsGateStatus::OverLimit);
        r.off_again_seconds = 1.5;
        assert_eq!(r.status(), ObsGateStatus::NoisySkipped);
        assert!(!r.statistically_zero_disabled());
    }
}

//! The observability **gate**: telemetry must be free when off and nearly
//! free when on.
//!
//! Runs the scenario mix through the batch driver four ways — observability
//! off, off again, stage-timing mode, and full tracing — as the arms of one
//! [`measure::interleaved`] call, so they share whatever clock or scheduler
//! drift the machine has.  The gate then checks, in
//! decreasing order of hardness:
//!
//! 1. **Bit-identity** (the hard gate): every arm's report equals the
//!    sequential reference exactly — reports carry no telemetry, so there
//!    is nothing to drop first.  A violation here means telemetry perturbed
//!    an allocation and always fails.  `BENCH_obs.json` spells the stage
//!    and trace flags `stages_stripped`/`trace_stripped`: renaming them
//!    would bump the schema.
//! 2. **Disabled cost is statistically zero**: the two obs-off arms run
//!    *identical code*, so the relative delta of their best repetitions is a
//!    direct measurement of the machine's noise floor.  A small delta
//!    demonstrates both that the measurement can resolve the question and
//!    that the disabled no-op path costs nothing distinguishable from it.
//! 3. **Enabled overhead bounds**: stage-timing mode — the mode a scratch's
//!    owner leaves on to read stage time beside its results — may cost at most
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

use mwl_driver::{run_batch, run_batch_traced, BatchOptions};
use mwl_model::SonicCostModel;
use mwl_obs::json::{rounded, Check, Json, ObjectBuilder};
use mwl_obs::{ObsMode, TraceSink};

use crate::batch::{scenario_jobs, BatchSweepConfig};
use crate::measure;

/// Maximum relative overhead of stage-timing mode — the cheap mode a
/// scratch's owner leaves on and drains with `take_stages` — over the
/// obs-off baseline (before the measured noise floor is added to the
/// allowance).
pub const ENABLED_OVERHEAD_LIMIT: f64 = 0.05;

/// Maximum relative overhead of full trace mode, which additionally
/// materialises one owned event per span for offline rendering.
pub const TRACE_OVERHEAD_LIMIT: f64 = 0.10;

/// Maximum relative delta between the two obs-off arms for the measurement
/// to count as sound.  Above this the overhead checks are skipped.
pub const DISABLED_NOISE_LIMIT: f64 = 0.05;

/// The schema version of `BENCH_obs.json`.
const SCHEMA: &str = "mwl_obs_gate_v1";

/// Parameters of one observability-gate run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsGateConfig {
    /// The scenario mix; the gate's arms run it on one worker, and the
    /// binary's `--trace-out` pass at its highest worker count.
    pub sweep: BatchSweepConfig,
    /// Label recorded in the JSON (`"batch_sweep_smoke"` / `"batch_sweep_quick"`).
    pub scenario: &'static str,
    /// Interleaved timing repetitions per arm; the fastest is kept.
    pub repetitions: usize,
}

impl ObsGateConfig {
    /// The CI configuration: the scenario families at larger problem
    /// sizes than the perf gate's smoke mix, best of 5.  Overhead is a ratio of
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
    /// Stage-mode report equalled the reference bit for bit.
    pub identical_stages: bool,
    /// Trace-mode report equalled the reference bit for bit.
    pub identical_trace: bool,
    /// Trace events emitted by one trace-mode pass over the mix.
    pub trace_events: usize,
}

impl ObsGateResults {
    /// Relative delta between the two obs-off arms: the noise floor.
    #[must_use]
    fn disabled_delta(&self) -> f64 {
        (self.off_again_seconds - self.off_seconds).abs() / self.off_seconds
    }

    /// The faster of the two obs-off arms — the overhead baseline.
    #[must_use]
    fn baseline_seconds(&self) -> f64 {
        self.off_seconds.min(self.off_again_seconds)
    }

    /// Relative overhead of stage mode over the baseline (can be negative
    /// in the noise).
    #[must_use]
    fn stages_overhead(&self) -> f64 {
        self.stages_seconds / self.baseline_seconds() - 1.0
    }

    /// Relative overhead of trace mode over the baseline.
    #[must_use]
    fn trace_overhead(&self) -> f64 {
        self.trace_seconds / self.baseline_seconds() - 1.0
    }

    /// Whether the off/off delta is small enough to call the disabled path
    /// statistically free — and the measurement sound.
    #[must_use]
    fn statistically_zero_disabled(&self) -> bool {
        self.disabled_delta() <= DISABLED_NOISE_LIMIT
    }

    /// Whether both enabled modes stay within their overhead limits plus
    /// the measured noise floor.
    #[must_use]
    fn within_enabled_limit(&self) -> bool {
        let noise = self.disabled_delta();
        self.stages_overhead() <= ENABLED_OVERHEAD_LIMIT + noise
            && self.trace_overhead() <= TRACE_OVERHEAD_LIMIT + noise
    }

    /// The overhead verdict as `BENCH_obs.json` spells it: `ok`,
    /// `over_limit`, or `noisy_skipped` when the noise floor is too high
    /// to resolve the question (identity is judged separately).
    #[must_use]
    fn status(&self) -> &'static str {
        if !self.statistically_zero_disabled() {
            "noisy_skipped"
        } else if self.within_enabled_limit() {
            "ok"
        } else {
            "over_limit"
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
            "bit-identical: off {}, stages {}, trace {}\n",
            self.identical_off, self.identical_stages, self.identical_trace
        ));
        out.push_str(&format!(
            "noise floor {:.2}% (limit {:.0}%), stage limit {:.0}%+noise, trace limit {:.0}%+noise, trace events {}, status {}\n",
            self.disabled_delta() * 100.0,
            DISABLED_NOISE_LIMIT * 100.0,
            ENABLED_OVERHEAD_LIMIT * 100.0,
            TRACE_OVERHEAD_LIMIT * 100.0,
            self.trace_events,
            self.status(),
        ));
        out
    }

    /// Every assertion `BENCH_obs.json` violates; the gate exits on it.  A
    /// `noisy_skipped` status passes, `over_limit` does not.
    #[must_use]
    pub fn check(doc: &Json) -> Vec<String> {
        let mut c = Check::new(doc);
        c.is("schema", SCHEMA);
        c.positive("jobs");
        c.positive("repetitions");
        c.is("bit_identical.off", true);
        c.is("bit_identical.stages_stripped", true);
        c.is("bit_identical.trace_stripped", true);
        for arm in ["off", "off_again", "stages", "trace"] {
            c.positive(&format!("seconds.{arm}"));
        }
        c.at_least("disabled.delta", 0.0);
        c.is("disabled.noise_limit", DISABLED_NOISE_LIMIT);
        c.number("enabled.stages_overhead");
        c.number("enabled.trace_overhead");
        c.is("enabled.stages_limit", ENABLED_OVERHEAD_LIMIT);
        c.is("enabled.trace_limit", TRACE_OVERHEAD_LIMIT);
        let spans = c.num("trace_events") > c.num("jobs");
        c.require(spans, "trace_events", "a traced job must emit spans");
        let status = c.text("status");
        let passed = matches!(status, "ok" | "noisy_skipped");
        c.require(passed, "status", "over the overhead limit");
        if status == "ok" {
            c.is("disabled.statistically_zero", true);
            c.is("enabled.within_limit", true);
        }
        c.finish()
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
            .field("stages_stripped", self.identical_stages)
            .field("trace_stripped", self.identical_trace);
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
            .field("schema", SCHEMA)
            .field("scenario", self.scenario)
            .field("jobs", self.jobs)
            .field("cores", self.cores)
            .field("repetitions", self.repetitions)
            .field("seconds", seconds.build())
            .field("bit_identical", bit_identical.build())
            .field("disabled", disabled.build())
            .field("enabled", enabled.build())
            .field("trace_events", self.trace_events)
            .field("status", self.status())
            .build()
    }
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
        |arm, report| identical[arm] &= report == reference,
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
        identical_stages: identical[2],
        identical_trace: identical[TRACE],
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

    /// The check covers identity, positive times and trace spans; a loaded
    /// test machine may measure over the overhead limit.
    #[test]
    fn gate_passes_its_check() {
        let results = run_obs_gate(&tiny());
        let json = Json::parse(&results.to_json().encode_pretty()).unwrap();
        let violations = ObsGateResults::check(&json);
        let over_limit = violations.iter().all(|v| v.starts_with("status:"));
        assert!(over_limit, "{violations:?}");
        assert_eq!(json.get("scenario"), Some(&Json::from("test_tiny")));
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
        assert_eq!(r.status(), "ok");
        assert!(r.statistically_zero_disabled());
        r.trace_seconds = 1.2;
        assert_eq!(r.status(), "over_limit");
        r.off_again_seconds = 1.5;
        assert_eq!(r.status(), "noisy_skipped");
        assert!(!r.statistically_zero_disabled());
    }
}

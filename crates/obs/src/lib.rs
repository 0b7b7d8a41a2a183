//! Deterministic-by-construction telemetry for the allocation stack.
//!
//! The workspace's hard invariant is that *results are a pure function of
//! inputs*: batch reports are bit-identical at every worker count and the
//! serve daemon's payloads are byte-identical to a direct batch run.  A
//! telemetry layer must therefore be **provably non-perturbing**: clocks and
//! counters may be *read* anywhere, but nothing they produce may flow back
//! into an allocation decision.  This crate enforces that shape by API
//! design — every primitive is write-only from the instrumented code's point
//! of view:
//!
//! * [`StageTimer`] / [`StageRecorder`] — stage-scoped stopwatches for the
//!   allocator's hot loop.  When the recorder is [`ObsMode::Off`] (the
//!   default), starting a timer reads no clock and records nothing: the
//!   fast path is one branch on a plain enum.
//! * [`Stage`] / [`StageNanos`] — the fixed stage taxonomy (schedule, bind,
//!   refine, merge, storage, rtl, variant, solve) and a `Copy` accumulator
//!   of per-stage nanoseconds.
//! * [`MetricsRegistry`] — named [`Counter`]s and log-bucketed
//!   [`Histogram`]s (p50/p95/p99) behind atomics; name-sorted snapshots
//!   (the daemon's `metrics` wire command digests them).
//! * [`TraceEvent`] / [`TraceSink`] / [`chrome_trace_json`] — a Chrome
//!   trace-event document whose output loads in `chrome://tracing` and
//!   [Perfetto](https://ui.perfetto.dev).
//! * [`json`] — the workspace's one JSON codec: the [`json::Json`] value,
//!   a strict depth-bounded parser, and the compact (wire) and pretty
//!   (report file) encoders every JSON writer in the stack prints with.
//!
//! No dependencies, no `unsafe`, no global state: recorders live inside the
//! allocator's scratch space, registries inside the server that owns them,
//! so parallel tests never observe each other's telemetry.
//!
//! *Pipeline position:* below `mwl_core` — the innermost support crate,
//! consumed by the allocator's scratch space, the batch driver and the serve
//! daemon.  See `docs/OBSERVABILITY.md` for the span taxonomy and metric
//! names, and `docs/ARCHITECTURE.md` for the paper-to-module map.
//!
//! # Quick start
//!
//! ```
//! use mwl_obs::{chrome_trace_json, MetricsRegistry, ObsMode, Stage, StageRecorder};
//!
//! // Stage timing: a no-op until the recorder is switched on.
//! let mut rec = StageRecorder::default();
//! rec.set_mode(ObsMode::Stages);
//! let t = rec.start();
//! // ... do the work being measured ...
//! rec.stop(Stage::Schedule, t);
//! let stages = rec.take_stages();
//! assert_eq!(stages.get(Stage::Bind), 0);
//!
//! // Metrics: counters and log-bucketed histograms.
//! let registry = MetricsRegistry::new();
//! registry.counter("jobs").add(1);
//! let h = registry.histogram("latency_ns");
//! h.record(1_500);
//! h.record(2_500);
//! assert!(h.percentile(99.0) >= h.percentile(50.0));
//! let snapshot = registry.snapshot();
//! assert_eq!(snapshot.counters, vec![("jobs".to_string(), 1)]);
//! assert_eq!(snapshot.histograms[0].1.count, 2);
//!
//! // Tracing: events render to a Chrome trace-event JSON document.
//! let trace = chrome_trace_json(&[]).encode_pretty();
//! assert!(trace.contains("\"traceEvents\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod json;
mod metrics;
mod stage;
mod trace;

pub use metrics::{
    nearest_rank, Counter, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
};
pub use stage::{ObsMode, Stage, StageNanos, StageRecorder, StageTimer};
pub use trace::{check_chrome_trace, chrome_trace_json, ArgValue, TraceEvent, TraceSink};

use std::time::Instant;

/// A plain always-on stopwatch for service-level timing (queue waits,
/// request latencies) where the measured path is not determinism-critical.
///
/// The allocator's hot loop uses [`StageRecorder::start`] instead, whose
/// disabled fast path reads no clock at all.
///
/// ```
/// let sw = mwl_obs::Stopwatch::start();
/// let ns = sw.elapsed_ns();
/// # let _ = ns;
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts the stopwatch.
    #[must_use]
    pub fn start() -> Self {
        Stopwatch {
            started: Instant::now(),
        }
    }

    /// Nanoseconds since [`start`](Self::start), saturating at `u64::MAX`.
    #[must_use]
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

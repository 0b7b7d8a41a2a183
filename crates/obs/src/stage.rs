//! Stage-scoped stopwatches for the allocator's hot loop.
//!
//! A [`StageRecorder`] lives inside each worker's allocation scratch space
//! and accumulates wall-clock nanoseconds per [`Stage`].  The recorder is
//! strictly write-only for the instrumented code: nothing it measures can be
//! read back *during* an allocation, which is what makes the telemetry
//! provably non-perturbing — the identity suites pin that datapaths are
//! bit-identical with recording on, off, and at every worker count.

use std::time::Instant;

use crate::trace::{ArgValue, TraceEvent};

/// What a [`StageRecorder`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ObsMode {
    /// Record nothing.  Starting a timer reads no clock: the fast path is a
    /// single branch.
    #[default]
    Off,
    /// Accumulate per-stage nanoseconds ([`StageRecorder::take_stages`]).
    Stages,
    /// Accumulate per-stage nanoseconds *and* emit one [`TraceEvent`] per
    /// stopped timer ([`StageRecorder::drain_events`]).
    Trace,
}

/// The fixed stage taxonomy of one allocation job, in report order.
///
/// The first five are the DPAlloc phases (the paper's scheduling /
/// BindSelect / refinement loop plus the post-bind merge pass and the
/// storage-aware register packing); `Rtl` is the equivalence oracle,
/// `Variant` one portfolio arm, and `Solve` the whole-job roll-up that
/// contains all of the others.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Scheduling-set computation + list scheduling.
    Schedule,
    /// Combined binding and wordlength selection (BindSelect, including
    /// clique growth).
    Bind,
    /// Wordlength refinement (bound critical path + candidate selection).
    Refine,
    /// Post-bind instance merging.
    Merge,
    /// Storage-aware register packing.
    Storage,
    /// RTL equivalence oracle.
    Rtl,
    /// One portfolio variant (a roll-up over its inner stages).
    Variant,
    /// The whole job (a roll-up over everything above).
    Solve,
}

impl Stage {
    /// Every stage, in report order.
    pub const ALL: [Stage; 8] = [
        Stage::Schedule,
        Stage::Bind,
        Stage::Refine,
        Stage::Merge,
        Stage::Storage,
        Stage::Rtl,
        Stage::Variant,
        Stage::Solve,
    ];

    /// Number of stages.
    pub const COUNT: usize = Self::ALL.len();

    /// The stage's stable snake_case name (used as span and JSON key).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::Schedule => "schedule",
            Stage::Bind => "bind",
            Stage::Refine => "refine",
            Stage::Merge => "merge",
            Stage::Storage => "storage",
            Stage::Rtl => "rtl",
            Stage::Variant => "variant",
            Stage::Solve => "solve",
        }
    }

    /// The trace-event category the stage belongs to.
    #[must_use]
    pub fn category(self) -> &'static str {
        match self {
            Stage::Schedule | Stage::Bind | Stage::Refine | Stage::Merge | Stage::Storage => {
                "alloc"
            }
            Stage::Rtl => "rtl",
            Stage::Variant => "portfolio",
            Stage::Solve => "job",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Accumulated nanoseconds per [`Stage`]: a small `Copy` value its owner
/// reads beside a result, never inside one.
///
/// `Variant` and `Solve` are roll-ups — they *contain* the inner stages —
/// so the entries are not disjoint and do not sum to wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct StageNanos {
    nanos: [u64; Stage::COUNT],
}

impl StageNanos {
    /// Nanoseconds accumulated in `stage`.
    #[must_use]
    pub fn get(&self, stage: Stage) -> u64 {
        self.nanos[stage.index()]
    }

    /// Adds `nanos` to `stage`, saturating.
    pub fn add(&mut self, stage: Stage, nanos: u64) {
        let slot = &mut self.nanos[stage.index()];
        *slot = slot.saturating_add(nanos);
    }

    /// Element-wise saturating sum with another breakdown.
    pub fn merge(&mut self, other: &StageNanos) {
        for stage in Stage::ALL {
            self.add(stage, other.get(stage));
        }
    }

    /// Whether every stage is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.nanos.iter().all(|&n| n == 0)
    }
}

/// A started (or inert) stage stopwatch; pair it with
/// [`StageRecorder::stop`].
///
/// When the recorder is [`ObsMode::Off`], [`StageRecorder::start`] returns
/// an inert timer without reading the clock, and `stop` is a no-op — the
/// entire telemetry cost in disabled mode is two branches per stage.
/// Dropping a timer without stopping it records nothing.
#[derive(Debug)]
#[must_use = "a timer only records when passed back to StageRecorder::stop"]
pub struct StageTimer(Option<Instant>);

/// Per-worker stage accumulator and trace-event buffer.
///
/// Lives inside the allocator's scratch space; the driving layer switches it
/// on ([`set_mode`](Self::set_mode)), runs jobs, then drains the results
/// ([`take_stages`](Self::take_stages) / [`drain_events`](Self::drain_events)).
/// The recorder never hands timing back to the code being measured.
#[derive(Debug, Default)]
pub struct StageRecorder {
    mode: ObsMode,
    tid: u64,
    epoch: Option<Instant>,
    stages: StageNanos,
    events: Vec<TraceEvent>,
}

impl StageRecorder {
    /// Switches the mode.  Entering [`ObsMode::Trace`] pins the trace epoch
    /// (timestamp zero) to *now* unless one was already set via
    /// [`set_trace_context`](Self::set_trace_context).
    pub fn set_mode(&mut self, mode: ObsMode) {
        self.mode = mode;
        if mode == ObsMode::Trace && self.epoch.is_none() {
            self.epoch = Some(Instant::now());
        }
    }

    /// Sets the trace thread id and epoch.  Workers sharing one trace file
    /// must share one epoch so their timestamps are mutually coherent.
    pub fn set_trace_context(&mut self, tid: u64, epoch: Instant) {
        self.tid = tid;
        self.epoch = Some(epoch);
    }

    /// Starts a stage timer.  Reads no clock when the recorder is off.
    #[inline]
    pub fn start(&self) -> StageTimer {
        if self.mode == ObsMode::Off {
            StageTimer(None)
        } else {
            StageTimer(Some(Instant::now()))
        }
    }

    /// Stops a timer, crediting the elapsed time to `stage`.
    #[inline]
    pub fn stop(&mut self, stage: Stage, timer: StageTimer) {
        self.stop_with(stage, timer, Vec::new);
    }

    /// Stops a timer, crediting `stage` and attaching the arguments `args`
    /// builds to the trace event.  `args` runs only in [`ObsMode::Trace`],
    /// so an untraced stop builds nothing.
    pub fn stop_with(
        &mut self,
        stage: Stage,
        timer: StageTimer,
        args: impl FnOnce() -> Vec<(&'static str, ArgValue)>,
    ) {
        let Some(started) = timer.0 else { return };
        let elapsed = started.elapsed();
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.stages.add(stage, nanos);
        if self.mode == ObsMode::Trace {
            let ts_ns = self.epoch.map_or(0, |epoch| {
                u64::try_from(started.duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
            });
            self.events.push(TraceEvent {
                name: stage.name(),
                cat: stage.category(),
                ts_ns,
                dur_ns: nanos,
                tid: self.tid,
                args: args(),
            });
        }
    }

    /// Returns the accumulated per-stage nanoseconds and resets them — the
    /// drain point of whoever owns the recorder's scratch.
    pub fn take_stages(&mut self) -> StageNanos {
        std::mem::take(&mut self.stages)
    }

    /// Removes and returns the buffered trace events.
    pub fn drain_events(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }

    /// Returns the recorder to its default state: [`ObsMode::Off`], no trace
    /// context, no stage totals and no buffered events.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_mode_records_nothing() {
        let mut rec = StageRecorder::default();
        let t = rec.start();
        std::thread::sleep(std::time::Duration::from_millis(1));
        rec.stop(Stage::Schedule, t);
        assert!(rec.take_stages().is_zero());
        assert!(rec.drain_events().is_empty());
    }

    #[test]
    fn stages_mode_accumulates_without_events() {
        let mut rec = StageRecorder::default();
        rec.set_mode(ObsMode::Stages);
        for _ in 0..3 {
            let t = rec.start();
            std::thread::sleep(std::time::Duration::from_micros(100));
            rec.stop(Stage::Refine, t);
        }
        let stages = rec.take_stages();
        assert!(stages.get(Stage::Refine) > 0);
        assert_eq!(stages.get(Stage::Merge), 0);
        assert!(rec.drain_events().is_empty());
        // take_stages resets.
        assert!(rec.take_stages().is_zero());
    }

    #[test]
    fn trace_mode_emits_one_event_per_stop() {
        let mut rec = StageRecorder::default();
        rec.set_trace_context(7, Instant::now());
        rec.set_mode(ObsMode::Trace);
        let t = rec.start();
        rec.stop_with(Stage::Variant, t, || vec![("variant", ArgValue::Int(3))]);
        let t = rec.start();
        rec.stop(Stage::Solve, t);
        let events = rec.drain_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "variant");
        assert_eq!(events[0].cat, "portfolio");
        assert_eq!(events[0].tid, 7);
        assert_eq!(events[0].args, vec![("variant", ArgValue::Int(3))]);
        assert_eq!(events[1].name, "solve");
        assert!(events[1].ts_ns >= events[0].ts_ns);
        assert!(rec.drain_events().is_empty());
    }

    #[test]
    fn reset_turns_recording_off_and_forgets_everything() {
        let mut rec = StageRecorder::default();
        rec.set_trace_context(7, Instant::now());
        rec.set_mode(ObsMode::Trace);
        let t = rec.start();
        rec.stop(Stage::Bind, t);
        rec.reset();
        assert!(rec.take_stages().is_zero());
        assert!(rec.drain_events().is_empty());
        let t = rec.start();
        rec.stop(Stage::Bind, t);
        assert!(rec.take_stages().is_zero(), "reset leaves the recorder off");
        rec.set_mode(ObsMode::Trace);
        let t = rec.start();
        rec.stop(Stage::Bind, t);
        assert_eq!(rec.drain_events()[0].tid, 0, "reset clears the trace lane");
    }

    #[test]
    fn trace_args_are_built_only_when_tracing() {
        let mut rec = StageRecorder::default();
        let mut built = 0;
        for mode in [ObsMode::Off, ObsMode::Stages, ObsMode::Trace] {
            rec.set_mode(mode);
            let t = rec.start();
            rec.stop_with(Stage::Solve, t, || {
                built += 1;
                vec![("job", ArgValue::Int(1))]
            });
            assert_eq!(built, usize::from(mode == ObsMode::Trace), "{mode:?}");
        }
        assert_eq!(rec.drain_events()[0].args, vec![("job", ArgValue::Int(1))]);
    }

    #[test]
    fn stage_names_are_unique_and_stable() {
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Stage::COUNT);
        assert_eq!(Stage::Schedule.name(), "schedule");
        assert_eq!(Stage::Storage.category(), "alloc");
    }

    #[test]
    fn stage_nanos_merge_saturates() {
        let mut a = StageNanos::default();
        a.add(Stage::Bind, 5);
        let mut b = StageNanos::default();
        b.add(Stage::Bind, 7);
        b.add(Stage::Solve, u64::MAX);
        a.merge(&b);
        assert_eq!(a.get(Stage::Bind), 12);
        assert_eq!(a.get(Stage::Solve), u64::MAX);
        a.add(Stage::Solve, 1); // saturates
        assert_eq!(a.get(Stage::Solve), u64::MAX);
        assert!(!a.is_zero());
    }
}

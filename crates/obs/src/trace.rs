//! Chrome trace-event JSON: the workspace's trace file format.
//!
//! [`chrome_trace_json`] renders complete (`"ph":"X"`) duration events in
//! the [Trace Event Format] consumed by `chrome://tracing` and
//! [Perfetto](https://ui.perfetto.dev).  Timestamps and durations are
//! written as microseconds (nanoseconds / 1000 as floats), the format's
//! native unit.  The document is a [`Json`] value, so it is printed and
//! re-parsed by the workspace's one codec ([`crate::json`]), which the
//! round-trip suite pins.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use std::sync::Mutex;

use crate::json::{Check, Json, ObjectBuilder};

/// A trace-event argument value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgValue {
    /// An integer argument.
    Int(i64),
    /// A string argument.
    Str(String),
}

/// One complete duration event (`"ph":"X"`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event name (a stable span name, e.g. `"schedule"`).
    pub name: &'static str,
    /// Event category (e.g. `"alloc"`).
    pub cat: &'static str,
    /// Start timestamp in nanoseconds since the trace epoch.
    pub ts_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Thread id lane the event renders in.
    pub tid: u64,
    /// Event arguments, rendered into the `args` object.
    pub args: Vec<(&'static str, ArgValue)>,
}

/// A shared, append-only trace collector: workers drain their recorders
/// into it and the driving layer renders the merged result once at the end.
///
/// Events are sorted by `(ts, tid)` at render time, so the file's byte
/// content depends only on the recorded events, not on append order.
#[derive(Debug, Default)]
pub struct TraceSink {
    events: Mutex<Vec<TraceEvent>>,
}

impl TraceSink {
    /// Creates an empty sink.
    #[must_use]
    pub fn new() -> Self {
        TraceSink::default()
    }

    /// Appends a batch of events.
    pub fn append(&self, mut events: Vec<TraceEvent>) {
        if events.is_empty() {
            return;
        }
        self.events
            .lock()
            .expect("trace sink poisoned")
            .append(&mut events);
    }

    /// Number of events collected so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.lock().expect("trace sink poisoned").len()
    }

    /// Whether no events have been collected.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A sorted copy of the collected events.
    #[must_use]
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let mut events = self.events.lock().expect("trace sink poisoned").clone();
        sort_events(&mut events);
        events
    }

    /// Renders the collected events as a Chrome trace-event JSON document.
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        chrome_trace_json(&self.snapshot()).encode_pretty()
    }
}

fn sort_events(events: &mut [TraceEvent]) {
    events.sort_by(|a, b| {
        (a.ts_ns, a.tid, a.name, a.dur_ns).cmp(&(b.ts_ns, b.tid, b.name, b.dur_ns))
    });
}

/// Builds the Chrome trace-event document for `events`.
///
/// The document is an object with a `traceEvents` array of `"ph":"X"`
/// events — directly loadable in `chrome://tracing` or Perfetto once
/// printed with [`Json::encode_pretty`], one event per line.
#[must_use]
pub fn chrome_trace_json(events: &[TraceEvent]) -> Json {
    ObjectBuilder::new()
        .field("displayTimeUnit", "ms")
        .field(
            "traceEvents",
            events.iter().map(TraceEvent::to_json).collect::<Json>(),
        )
        .build()
}

/// Every assertion a Chrome trace document written by
/// [`TraceSink::to_chrome_json`] violates: it holds at least one event,
/// every event is a complete (`"ph":"X"`) event with non-negative `ts` and
/// `dur` on a lane `tid < lanes`, and each of `spans` names some event.
#[must_use]
pub fn check_chrome_trace(doc: &Json, lanes: usize, spans: &[&str]) -> Vec<String> {
    let mut c = Check::new(doc);
    let names = c.column("traceEvents", "name");
    c.require(!names.is_empty(), "traceEvents", "empty trace");
    c.each("traceEvents", |e| {
        e.is("ph", "X");
        e.at_least("ts", 0.0);
        e.at_least("dur", 0.0);
        let tid = e.num("tid");
        let lane = tid.fract() == 0.0 && (0.0..lanes as f64).contains(&tid);
        e.require(lane, "tid", &format!("outside the {lanes} worker lanes"));
    });
    for &span in spans {
        let found = names.contains(&span.into());
        c.require(found, "traceEvents", &format!("no {span} span"));
    }
    c.finish()
}

impl TraceEvent {
    /// The event as one Chrome trace-event object.
    fn to_json(&self) -> Json {
        let mut event = ObjectBuilder::new()
            .field("name", self.name)
            .field("cat", self.cat)
            .field("ph", "X")
            .field("pid", 0u64)
            .field("tid", self.tid)
            .field("ts", self.ts_ns as f64 / 1_000.0)
            .field("dur", self.dur_ns as f64 / 1_000.0);
        if !self.args.is_empty() {
            let args = self.args.iter().map(|(key, value)| {
                let value = match value {
                    ArgValue::Int(v) => Json::Int(*v),
                    ArgValue::Str(s) => Json::Str(s.clone()),
                };
                ((*key).to_string(), value)
            });
            event = event.field("args", Json::Object(args.collect()));
        }
        event.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(name: &'static str, ts_ns: u64, tid: u64) -> TraceEvent {
        TraceEvent {
            name,
            cat: "alloc",
            ts_ns,
            dur_ns: 1_234,
            tid,
            args: Vec::new(),
        }
    }

    #[test]
    fn empty_trace_is_a_valid_document() {
        let json = chrome_trace_json(&[]);
        assert_eq!(json.get("traceEvents"), Some(&Json::Array(Vec::new())));
        assert_eq!(Json::parse(&json.encode_pretty()).unwrap(), json);
    }

    #[test]
    fn micros_are_nanoseconds_over_a_thousand() {
        for (ns, micros) in [
            (0, "0.0"),
            (999, "0.999"),
            (1_000, "1.0"),
            (1_234_567, "1234.567"),
        ] {
            let json = chrome_trace_json(&[event("e", ns, 0)]).encode();
            assert!(json.contains(&format!("\"ts\":{micros},")), "{json}");
        }
    }

    #[test]
    fn events_render_with_args() {
        let mut e = event("schedule", 2_500, 3);
        e.args = vec![
            ("variant", ArgValue::Int(-2)),
            ("label", ArgValue::Str("a\"b\\c\n".to_string())),
        ];
        let json = chrome_trace_json(&[e]).encode();
        assert!(json.contains("\"name\":\"schedule\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"tid\":3"));
        assert!(json.contains("\"ts\":2.5"));
        assert!(json.contains("\"dur\":1.234"));
        assert!(json.contains("\"variant\":-2"));
        assert!(json.contains("\"label\":\"a\\\"b\\\\c\\n\""));
    }

    #[test]
    fn sink_merges_and_sorts_deterministically() {
        let sink = TraceSink::new();
        sink.append(vec![event("b", 20, 1), event("a", 10, 2)]);
        sink.append(vec![event("c", 10, 1)]);
        sink.append(Vec::new());
        assert_eq!(sink.len(), 3);
        let snap = sink.snapshot();
        assert_eq!(
            snap.iter().map(|e| e.name).collect::<Vec<_>>(),
            vec!["c", "a", "b"]
        );
        // Append order never changes the rendered bytes.
        let sink2 = TraceSink::new();
        sink2.append(vec![event("c", 10, 1)]);
        sink2.append(vec![event("a", 10, 2), event("b", 20, 1)]);
        assert_eq!(sink.to_chrome_json(), sink2.to_chrome_json());
    }
}

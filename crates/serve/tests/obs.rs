//! Service-level observability: the `metrics` wire command reports the
//! request-lifecycle histograms and dedup counters, and the Chrome trace
//! document parses with the workspace's strict JSON parser.

mod common;

use mwl_driver::{run_batch_traced, BatchJob, BatchOptions, LatencySpec};
use mwl_model::SonicCostModel;
use mwl_obs::{check_chrome_trace, ObsMode, TraceSink};
use mwl_serve::json::Json;
use mwl_serve::wire::{JobConfig, SubmitRequest, WireGraph};
use mwl_serve::{Client, ServerConfig, SpawnedServer, SubmitAck};
use mwl_tgff::{TgffConfig, TgffGenerator};

fn submit_for(id: u64, graph: &mwl_model::SequencingGraph) -> SubmitRequest {
    SubmitRequest {
        id,
        label: None,
        priority: 0,
        graph: WireGraph::from_graph(graph),
        latency: LatencySpec::RelaxSteps(2),
        config: JobConfig::default(),
    }
}

/// End-to-end: solve a mix of cold and duplicate jobs, then fetch metrics.
/// The four lifecycle histograms are present; their counts reconcile with
/// the server's own statistics; and the dedup counters match `stats`.
#[test]
fn metrics_command_reports_lifecycle_histograms() {
    let server = SpawnedServer::start(ServerConfig::default().with_workers(2).with_dedup(true))
        .expect("server start");
    let mut client = Client::connect(server.addr()).expect("connect");

    let mut generator = TgffGenerator::new(TgffConfig::with_ops(8), 12);
    let a = generator.generate();
    let b = generator.generate();
    // Four submissions: a, b cold; then both again as guaranteed cache hits.
    for (id, graph) in [(0, &a), (1, &b)].into_iter().chain([(2, &a), (3, &b)]) {
        let ack = client.submit(submit_for(id, graph)).expect("submit");
        assert_eq!(ack, SubmitAck::Accepted);
        let (got, _) = client.next_result().expect("result");
        assert_eq!(got, id);
    }

    let metrics = client.metrics().expect("metrics");
    assert_eq!(metrics.dedup_hits, 2);
    assert_eq!(metrics.dedup_misses, 2);

    let by_name: std::collections::HashMap<&str, _> = metrics
        .histograms
        .iter()
        .map(|h| (h.name.as_str(), h))
        .collect();
    let queue_wait = by_name["serve.queue_wait_ns"];
    let dedup_lookup = by_name["serve.dedup_lookup_ns"];
    let alloc = by_name["serve.alloc_ns"];
    let serialize = by_name["serve.serialize_ns"];

    // Every popped task waits and serialises; only considered (uncancelled)
    // jobs look up the cache; only misses solve.
    assert_eq!(queue_wait.count, 4);
    assert_eq!(serialize.count, 4);
    assert_eq!(dedup_lookup.count, 4);
    assert_eq!(alloc.count, 2);
    assert!(alloc.max >= alloc.min);
    assert!(alloc.sum > 0, "solving takes measurable time");
    assert!(alloc.p50 <= alloc.p99 && alloc.p99 <= alloc.max);

    // Histogram names arrive in registry (lexicographic) order.
    let names: Vec<&str> = metrics.histograms.iter().map(|h| h.name.as_str()).collect();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    assert_eq!(names, sorted);

    // The stats view agrees with the metrics view of the dedup cache.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.dedup_hits, metrics.dedup_hits);
    assert_eq!(stats.dedup_misses, metrics.dedup_misses);

    client.shutdown().expect("shutdown");
    let _ = server.join();
}

/// A traced batch run renders a Chrome trace document that the strict JSON
/// parser accepts: every event is a complete `"ph":"X"` duration with
/// float-valued microsecond timestamps.
#[test]
fn chrome_trace_json_parses_with_the_strict_parser() {
    let cost = SonicCostModel::default();
    let mut generator = TgffGenerator::new(TgffConfig::with_ops(10), 7);
    let jobs = vec![
        BatchJob::new("t0", generator.generate(), LatencySpec::RelaxSteps(1)),
        BatchJob::new("t1", generator.generate(), LatencySpec::RelaxPercent(25)),
    ];
    let sink = TraceSink::new();
    let options = BatchOptions::with_workers(2).with_obs(ObsMode::Trace);
    let report = run_batch_traced(&jobs, &cost, &options, Some(&sink));
    assert_eq!(report.summary().failed, 0);
    assert!(!sink.is_empty());

    let doc = Json::parse(&sink.to_chrome_json()).expect("trace document parses");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    assert!(events.len() >= jobs.len());
    assert_eq!(
        check_chrome_trace(&doc, 2, &["solve"]),
        Vec::<String>::new()
    );
    for event in events {
        assert!(event.get("name").and_then(Json::as_str).is_some());
        // Microsecond timestamps render as floats (nanoseconds / 1000).
        assert!(matches!(event.get("ts"), Some(Json::Float(_))));
        assert!(matches!(event.get("dur"), Some(Json::Float(_))));
    }
}

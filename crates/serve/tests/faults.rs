//! Fault-injection tests: malformed lines, invalid / oversized /
//! unallocatable graphs, cancellation of queued and in-flight jobs,
//! queue-full rejection and mid-stream client disconnects each produce the
//! documented error response and never poison the worker pool or the dedup
//! cache.

use std::io::{BufRead, BufReader, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::thread;
use std::time::Duration;

use mwl_driver::LatencySpec;
use mwl_model::{Area, CostModel, Cycles, OpShape, ResourceClass, ResourceType, SonicCostModel};
use mwl_serve::wire::{
    JobConfig, WireOutcome, CODE_GRAPH_TOO_LARGE, CODE_INVALID_GRAPH, CODE_QUEUE_FULL,
    CODE_SHUTTING_DOWN,
};
use mwl_serve::{
    Client, Request, Response, Server, ServerConfig, SpawnedServer, StatsSnapshot, SubmitAck,
    SubmitRequest, WireGraph,
};

/// Widths above the server's warm grid reach the wrapped model directly —
/// this one is the trigger of the [`GateCost`] below.
const SENTINEL_WIDTH: u32 = 64;

/// A cost model that blocks the querying worker on the sentinel adder width
/// until released — the deterministic way to hold a job *in flight* (the
/// sentinel lies outside the warm grid, so server startup never trips it).
#[derive(Debug)]
struct GateCost {
    inner: SonicCostModel,
    started: AtomicBool,
    released: Mutex<bool>,
    release_signal: Condvar,
}

impl GateCost {
    fn new() -> Self {
        GateCost {
            inner: SonicCostModel::default(),
            started: AtomicBool::new(false),
            released: Mutex::new(false),
            release_signal: Condvar::new(),
        }
    }

    /// Waits (bounded) until a worker is blocked on the sentinel.
    fn wait_started(&self) -> bool {
        for _ in 0..200 {
            if self.started.load(Ordering::SeqCst) {
                return true;
            }
            thread::sleep(Duration::from_millis(25));
        }
        false
    }

    fn release(&self) {
        *self.released.lock().unwrap() = true;
        self.release_signal.notify_all();
    }

    fn block_if_sentinel(&self, resource: &ResourceType) {
        if resource.class() != ResourceClass::Adder || resource.widths().0 != SENTINEL_WIDTH {
            return;
        }
        self.started.store(true, Ordering::SeqCst);
        let mut released = self.released.lock().unwrap();
        // Bounded so a failing test hangs for seconds, not forever.
        for _ in 0..200 {
            if *released {
                return;
            }
            released = self
                .release_signal
                .wait_timeout(released, Duration::from_millis(50))
                .unwrap()
                .0;
        }
    }
}

impl CostModel for GateCost {
    fn area(&self, resource: &ResourceType) -> Area {
        self.block_if_sentinel(resource);
        self.inner.area(resource)
    }

    fn latency(&self, resource: &ResourceType) -> Cycles {
        self.block_if_sentinel(resource);
        self.inner.latency(resource)
    }
}

/// Runs `body` against a server backed by a [`GateCost`], hard-stopping the
/// server afterwards (idempotent when the body already shut it down).
fn with_gate_server<T>(
    config: ServerConfig,
    body: impl FnOnce(std::net::SocketAddr, &mut Client, &GateCost) -> T,
) -> (T, StatsSnapshot) {
    let gate = GateCost::new();
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let control = server.control();
    let gate = &gate;
    thread::scope(|scope| {
        let handle = scope.spawn(move || server.serve(gate));
        let mut client = Client::connect(addr).expect("connect");
        let out = body(addr, &mut client, gate);
        // Unblock any worker still parked on the gate, then stop.
        gate.release();
        control.stop();
        let stats = handle.join().expect("server thread panicked");
        (out, stats)
    })
}

/// A trivially valid one-adder graph with width-dependent content.
fn small_graph(width: u32) -> WireGraph {
    WireGraph {
        ops: vec![OpShape::adder(width), OpShape::adder(width)],
        edges: vec![(0, 1)],
    }
}

/// The graph that parks a worker on the gate.
fn sentinel_graph() -> WireGraph {
    WireGraph {
        ops: vec![OpShape::adder(SENTINEL_WIDTH)],
        edges: vec![],
    }
}

fn submit(id: u64, graph: WireGraph) -> SubmitRequest {
    SubmitRequest {
        id,
        label: None,
        priority: 0,
        graph,
        latency: LatencySpec::RelaxSteps(2),
        config: JobConfig::default(),
    }
}

/// Malformed lines are answered with `type: "error"` and leave the
/// connection — and the server — fully usable.
#[test]
fn malformed_lines_are_answered_not_fatal() {
    let server = SpawnedServer::start(ServerConfig::default()).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");

    for bad in [
        "{this is not json",
        "42",
        r#"{"type":"warp-core"}"#,
        r#"{"type":"submit","id":"seven"}"#,
        "\u{7f}\u{7f}\u{7f}",
    ] {
        client.send_raw(bad).expect("send");
        match client.read_control().expect("response") {
            Response::Error { message } => assert!(!message.is_empty()),
            other => panic!("malformed line answered with {other:?}"),
        }
    }

    // The connection survives and real work still flows.
    client.ping().expect("ping after garbage");
    assert_eq!(
        client.submit(submit(1, small_graph(8))).expect("submit"),
        SubmitAck::Accepted
    );
    let (id, outcome) = client.next_result().expect("result");
    assert_eq!(id, 1);
    assert!(matches!(outcome, WireOutcome::Ok(_)));
    client.shutdown().expect("shutdown");
    let stats = server.join();
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.rejected, 0, "errors are answers, not rejections");
}

/// Structurally invalid and oversized graphs are rejected with the
/// documented codes; an unallocatable job is *accepted* and fails cleanly —
/// none of the three disturbs later jobs.
#[test]
fn bad_graphs_reject_with_documented_codes() {
    let config = ServerConfig {
        max_ops: 4,
        ..ServerConfig::default()
    };
    let server = SpawnedServer::start(config).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");

    // Cyclic: CODE_INVALID_GRAPH.
    let cyclic = WireGraph {
        ops: vec![OpShape::adder(8), OpShape::adder(8)],
        edges: vec![(0, 1), (1, 0)],
    };
    match client.submit(submit(1, cyclic)).expect("submit") {
        SubmitAck::Rejected { code, reason } => {
            assert_eq!(code, CODE_INVALID_GRAPH);
            assert_eq!(reason, "invalid_graph");
        }
        other => panic!("cyclic graph admitted: {other:?}"),
    }

    // Dangling edge endpoint: also CODE_INVALID_GRAPH.
    let dangling = WireGraph {
        ops: vec![OpShape::adder(8)],
        edges: vec![(0, 9)],
    };
    assert!(matches!(
        client.submit(submit(2, dangling)).expect("submit"),
        SubmitAck::Rejected {
            code: CODE_INVALID_GRAPH,
            ..
        }
    ));

    // Five ops against max_ops = 4: CODE_GRAPH_TOO_LARGE.
    let oversized = WireGraph {
        ops: (0..5).map(|_| OpShape::adder(8)).collect(),
        edges: vec![],
    };
    match client.submit(submit(3, oversized)).expect("submit") {
        SubmitAck::Rejected { code, reason } => {
            assert_eq!(code, CODE_GRAPH_TOO_LARGE);
            assert_eq!(reason, "graph_too_large");
        }
        other => panic!("oversized graph admitted: {other:?}"),
    }

    // Unallocatable: an absolute latency below the critical path is a *job*
    // failure (accepted, then `status: "failed"`), not a rejection.
    let mut infeasible = submit(4, small_graph(8));
    infeasible.latency = LatencySpec::Absolute(1);
    assert_eq!(
        client.submit(infeasible).expect("submit"),
        SubmitAck::Accepted
    );
    let (id, outcome) = client.next_result().expect("result");
    assert_eq!(id, 4);
    match outcome {
        WireOutcome::Failed { error } => assert!(!error.is_empty()),
        other => panic!("infeasible job produced {other:?}"),
    }

    // The pool is intact: a good job still allocates.
    assert_eq!(
        client.submit(submit(5, small_graph(12))).expect("submit"),
        SubmitAck::Accepted
    );
    let (_, outcome) = client.next_result().expect("result");
    assert!(matches!(outcome, WireOutcome::Ok(_)));

    client.shutdown().expect("shutdown");
    let stats = server.join();
    assert_eq!(stats.rejected, 3);
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.completed, 2);
}

/// Cancelling a queued job skips its solve and delivers a cancelled result
/// in order; resubmitting the same graph afterwards still solves — the
/// dedup cache is not poisoned by the cancellation.
#[test]
fn queued_cancellation_skips_solve_and_keeps_cache_clean() {
    let config = ServerConfig::default().with_workers(1).with_dedup(true);
    let ((), stats) = with_gate_server(config, |_addr, client, gate| {
        // Park the single worker on the sentinel job.
        assert_eq!(
            client.submit(submit(1, sentinel_graph())).expect("submit"),
            SubmitAck::Accepted
        );
        assert!(gate.wait_started(), "worker never reached the gate");

        // Two queued jobs behind it; cancel the first while it waits.
        assert_eq!(
            client.submit(submit(2, small_graph(10))).expect("submit"),
            SubmitAck::Accepted
        );
        assert_eq!(
            client.submit(submit(3, small_graph(11))).expect("submit"),
            SubmitAck::Accepted
        );
        assert_eq!(
            client.cancel(2).expect("cancel"),
            mwl_serve::wire::CancelOutcome::Queued
        );
        // Cancelling it again (or a finished/unknown id) reports Unknown.
        assert_eq!(
            client.cancel(2).expect("cancel"),
            mwl_serve::wire::CancelOutcome::Unknown
        );
        assert_eq!(
            client.cancel(99).expect("cancel"),
            mwl_serve::wire::CancelOutcome::Unknown
        );

        gate.release();
        // Results stream in submission order: sentinel, cancelled, ok.
        let (id, outcome) = client.next_result().expect("result");
        assert_eq!(id, 1);
        assert!(matches!(outcome, WireOutcome::Ok(_)));
        let (id, outcome) = client.next_result().expect("result");
        assert_eq!(id, 2);
        assert_eq!(outcome, WireOutcome::Cancelled);
        let (id, outcome) = client.next_result().expect("result");
        assert_eq!(id, 3);
        assert!(matches!(outcome, WireOutcome::Ok(_)));

        // The cancelled job never touched the cache: resubmitting its graph
        // solves it for real.
        assert_eq!(
            client.submit(submit(4, small_graph(10))).expect("submit"),
            SubmitAck::Accepted
        );
        let (id, outcome) = client.next_result().expect("result");
        assert_eq!(id, 4);
        assert!(matches!(outcome, WireOutcome::Ok(_)));

        client.shutdown().expect("shutdown");
    });
    assert_eq!(stats.cancelled, 1);
    assert_eq!(
        stats.completed, 4,
        "cancelled deliveries count as completed"
    );
    // Sentinel + job 3 + job 4 consulted the cache; the queued-cancelled
    // job 2 did not (its solve was skipped entirely).
    assert_eq!(stats.dedup_hits + stats.dedup_misses, 3);
}

/// Cancelling an in-flight job reports `in_flight`, the client receives a
/// cancelled result, and — because the solve itself completed — the dedup
/// cache retains the real result for future submissions.
#[test]
fn in_flight_cancellation_reports_and_reuses() {
    let config = ServerConfig::default().with_workers(1).with_dedup(true);
    let ((), stats) = with_gate_server(config, |_addr, client, gate| {
        assert_eq!(
            client.submit(submit(1, sentinel_graph())).expect("submit"),
            SubmitAck::Accepted
        );
        assert!(gate.wait_started(), "worker never reached the gate");
        assert_eq!(
            client.cancel(1).expect("cancel"),
            mwl_serve::wire::CancelOutcome::InFlight
        );
        gate.release();
        let (id, outcome) = client.next_result().expect("result");
        assert_eq!(id, 1);
        assert_eq!(outcome, WireOutcome::Cancelled);

        // The completed solve was cached; a resubmission is a hit with the
        // real (Ok) result.
        assert_eq!(
            client.submit(submit(2, sentinel_graph())).expect("submit"),
            SubmitAck::Accepted
        );
        let (id, outcome) = client.next_result().expect("result");
        assert_eq!(id, 2);
        assert!(matches!(outcome, WireOutcome::Ok(_)));

        client.shutdown().expect("shutdown");
    });
    assert_eq!(stats.cancelled, 1);
    assert_eq!(stats.dedup_misses, 1);
    assert_eq!(
        stats.dedup_hits, 1,
        "in-flight cancel must not poison the cache"
    );
}

/// With the single worker parked and the queue at capacity, the next
/// submission is refused with `CODE_QUEUE_FULL` — and the rejected client
/// can simply retry after the queue drains.
#[test]
fn queue_full_is_rejected_then_retryable() {
    let config = ServerConfig::default()
        .with_workers(1)
        .with_queue_capacity(1)
        .with_dedup(false);
    let ((), stats) = with_gate_server(config, |_addr, client, gate| {
        assert_eq!(
            client.submit(submit(1, sentinel_graph())).expect("submit"),
            SubmitAck::Accepted
        );
        assert!(gate.wait_started(), "worker never reached the gate");
        // Worker holds job 1; job 2 fills the queue; job 3 must bounce.
        assert_eq!(
            client.submit(submit(2, small_graph(10))).expect("submit"),
            SubmitAck::Accepted
        );
        match client.submit(submit(3, small_graph(11))).expect("submit") {
            SubmitAck::Rejected { code, reason } => {
                assert_eq!(code, CODE_QUEUE_FULL);
                assert_eq!(reason, "queue_full");
            }
            other => panic!("over-capacity submission admitted: {other:?}"),
        }

        gate.release();
        let (id, _) = client.next_result().expect("result");
        assert_eq!(id, 1);
        let (id, _) = client.next_result().expect("result");
        assert_eq!(id, 2);

        // Back-pressure is transient: the same submission now succeeds.
        assert_eq!(
            client.submit(submit(3, small_graph(11))).expect("submit"),
            SubmitAck::Accepted
        );
        let (id, outcome) = client.next_result().expect("result");
        assert_eq!(id, 3);
        assert!(matches!(outcome, WireOutcome::Ok(_)));
        client.shutdown().expect("shutdown");
    });
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.completed, 3);
}

/// A client that disconnects with results still owed neither stalls the
/// workers nor affects other connections; its jobs drain into the void.
#[test]
fn mid_stream_disconnect_does_not_poison_the_pool() {
    let server = SpawnedServer::start(ServerConfig::default().with_workers(2)).expect("start");

    {
        let mut doomed = Client::connect(server.addr()).expect("connect");
        assert_eq!(
            doomed.submit(submit(1, small_graph(14))).expect("submit"),
            SubmitAck::Accepted
        );
        assert_eq!(
            doomed.submit(submit(2, small_graph(15))).expect("submit"),
            SubmitAck::Accepted
        );
        // Dropped here with both results undelivered.
    }

    let mut client = Client::connect(server.addr()).expect("connect");
    client.ping().expect("ping");
    assert_eq!(
        client.submit(submit(1, small_graph(16))).expect("submit"),
        SubmitAck::Accepted
    );
    let (_, outcome) = client.next_result().expect("result");
    assert!(matches!(outcome, WireOutcome::Ok(_)));

    // The abandoned jobs still complete (they were already admitted).
    let mut completed = 0;
    for _ in 0..200 {
        completed = client.stats().expect("stats").completed;
        if completed == 3 {
            break;
        }
        thread::sleep(Duration::from_millis(25));
    }
    assert_eq!(completed, 3, "disconnected client's jobs must still drain");

    client.shutdown().expect("shutdown");
    let stats = server.join();
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.accepted, 3);
}

/// Graceful shutdown drains: jobs admitted before the `shutdown` request
/// all deliver results before the ack, and submissions arriving during the
/// drain are refused with `CODE_SHUTTING_DOWN`.
#[test]
fn shutdown_drains_inflight_jobs_and_refuses_latecomers() {
    let config = ServerConfig::default().with_workers(1).with_dedup(false);
    let (drained, stats) = with_gate_server(config, |addr, client, gate| {
        assert_eq!(
            client.submit(submit(1, sentinel_graph())).expect("submit"),
            SubmitAck::Accepted
        );
        assert!(gate.wait_started(), "worker never reached the gate");
        assert_eq!(
            client.submit(submit(2, small_graph(10))).expect("submit"),
            SubmitAck::Accepted
        );

        // A second connection requests shutdown while the worker is still
        // parked, so both jobs are counted into the drain.  The request is
        // sent raw (not awaited) because the ack only arrives once the
        // drain completes — which needs the gate released first.
        let mut closer = Client::connect(addr).expect("connect");
        closer.send(&Request::Shutdown).expect("send shutdown");

        // The drain has begun once admission closes: poll until a fresh
        // submission bounces with CODE_SHUTTING_DOWN.
        let mut saw_shutting_down = false;
        for probe in 0..200u64 {
            match client
                .submit(submit(100 + probe, small_graph(9)))
                .expect("submit")
            {
                SubmitAck::Rejected { code, reason } => {
                    assert_eq!(code, CODE_SHUTTING_DOWN);
                    assert_eq!(reason, "shutting_down");
                    saw_shutting_down = true;
                    break;
                }
                SubmitAck::Accepted => {
                    // The probe raced ahead of the shutdown line and was
                    // admitted; it will drain like any other job.  Probe
                    // again after a pause.
                    thread::sleep(Duration::from_millis(25));
                }
            }
        }
        assert!(saw_shutting_down, "drain never closed admission");

        gate.release();
        let drained = closer.shutdown_ack().expect("shutdown ack");

        // The submitting connection got every admitted result, in order.
        let (id, _) = client.next_result().expect("result");
        assert_eq!(id, 1);
        let (id, outcome) = client.next_result().expect("result");
        assert_eq!(id, 2);
        assert!(matches!(outcome, WireOutcome::Ok(_)));
        while client.buffered_results() > 0 {
            client.next_result().expect("result");
        }

        drained
    });
    assert!(
        drained >= 2,
        "both gate-parked jobs counted into the drain (got {drained})"
    );
    assert!(stats.rejected >= 1, "the late submission was refused");
    assert_eq!(
        stats.completed, stats.accepted,
        "every admitted job drained"
    );
}

/// The start-up width grid is bounded by the cost cache's 64-bit ceiling: a
/// wider `grid_width` is refused before anything is allocated, and the
/// binary reports it and exits non-zero instead of wedging at start-up.
#[test]
fn grid_width_above_the_ceiling_is_refused() {
    let config = |grid_width| ServerConfig {
        grid_width,
        ..ServerConfig::default()
    };
    assert!(Server::bind(config(64)).is_ok());
    let err = Server::bind(config(65)).expect_err("a 65-bit grid must be refused");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);

    let output = std::process::Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--addr", "127.0.0.1:0", "--grid-width", "100000"])
        .output()
        .expect("run the serve binary");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("grid width 100000"), "{stderr}");
}

/// Sends one raw line and reads the daemon's one-line reply, waiting at
/// most `timeout`.
fn exchange(
    writer: &mut std::net::TcpStream,
    reader: &mut impl BufRead,
    line: &[u8],
    timeout: Duration,
) -> Response {
    writer
        .set_read_timeout(Some(timeout))
        .expect("read timeout");
    writer.write_all(line).expect("send line");
    writer.flush().expect("flush");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("a reply line");
    Response::parse(reply.trim()).expect("a protocol reply")
}

/// Kills the spawned daemon if the test fails before the daemon exits.
struct KillOnDrop(std::process::Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A line nesting 500 000 arrays is answered with an error instead of
/// overflowing the connection thread's stack: the real binary keeps serving
/// on the same connection and stays alive.
#[test]
fn deeply_nested_line_is_answered_and_the_daemon_survives() {
    let mut child = KillOnDrop(
        std::process::Command::new(env!("CARGO_BIN_EXE_serve"))
            .args(["--addr", "127.0.0.1:0", "--workers", "1"])
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("run the serve binary"),
    );
    let mut stdout = BufReader::new(child.0.stdout.take().expect("stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("listening line");
    let addr = banner
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"));

    let mut writer = std::net::TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(writer.try_clone().expect("clone"));
    let timeout = Duration::from_secs(20);
    let mut nested = vec![b'['; 500_000];
    nested.push(b'\n');
    let reply = exchange(&mut writer, &mut reader, &nested, timeout);
    assert!(matches!(reply, Response::Error { .. }), "{reply:?}");
    let ping = format!("{}\n", Request::Ping.encode());
    assert_eq!(
        exchange(&mut writer, &mut reader, ping.as_bytes(), timeout),
        Response::Pong
    );
    assert!(
        child.0.try_wait().expect("poll").is_none(),
        "the daemon died"
    );

    let shutdown = format!("{}\n", Request::Shutdown.encode());
    let ack = exchange(&mut writer, &mut reader, shutdown.as_bytes(), timeout);
    assert!(matches!(ack, Response::ShutdownAck { .. }), "{ack:?}");
    assert!(child.0.wait().expect("exit").success());
}

/// A line longer than the 8 MiB protocol limit is answered with the limit
/// error promptly: each received byte is searched for a newline once, not
/// once per read.
#[test]
fn oversized_line_is_answered_with_the_limit_error() {
    let server = SpawnedServer::start(ServerConfig::default()).expect("start");
    let mut writer = std::net::TcpStream::connect(server.addr()).expect("connect");
    let mut reader = BufReader::new(writer.try_clone().expect("clone"));
    let line = vec![b' '; 8 * 1024 * 1024 + 1];
    match exchange(&mut writer, &mut reader, &line, Duration::from_secs(20)) {
        Response::Error { message } => assert!(message.contains("8 MiB"), "{message}"),
        other => panic!("oversized line answered with {other:?}"),
    }

    let mut client = Client::connect(server.addr()).expect("connect");
    client.ping().expect("the server still answers");
    client.shutdown().expect("shutdown");
    let _ = server.join();
}

/// The loosest `relax_steps` budget the wire accepts resolves to the largest
/// latency instead of overflowing: the job solves, and the daemon answers
/// the next request on the same connection.
#[test]
fn loosest_relax_steps_budget_solves_and_the_daemon_survives() {
    let server = SpawnedServer::start(ServerConfig::default()).expect("start");
    let mut writer = std::net::TcpStream::connect(server.addr()).expect("connect");
    let mut reader = BufReader::new(writer.try_clone().expect("clone"));
    let timeout = Duration::from_secs(20);
    let line = concat!(
        r#"{"type":"submit","id":1,"graph":{"ops":[{"op":"add","width":4}],"edges":[]},"#,
        r#""latency":{"kind":"relax_steps","value":4294967295}}"#,
        "\n"
    );
    let ack = exchange(&mut writer, &mut reader, line.as_bytes(), timeout);
    assert_eq!(ack, Response::Accepted { id: 1 });
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("a result line");
    match Response::parse(reply.trim()).expect("a protocol reply") {
        Response::Result { id: 1, outcome } => {
            assert!(matches!(outcome, WireOutcome::Ok(_)), "{outcome:?}");
        }
        other => panic!("submission answered with {other:?}"),
    }
    let ping = format!("{}\n", Request::Ping.encode());
    assert_eq!(
        exchange(&mut writer, &mut reader, ping.as_bytes(), timeout),
        Response::Pong
    );
    let shutdown = format!("{}\n", Request::Shutdown.encode());
    let ack = exchange(&mut writer, &mut reader, shutdown.as_bytes(), timeout);
    assert!(matches!(ack, Response::ShutdownAck { .. }), "{ack:?}");
    assert_eq!(server.join().completed, 1);
}

/// Waits for a previously sent `shutdown` request's ack.
trait ShutdownAckExt {
    fn shutdown_ack(&mut self) -> Result<u64, mwl_serve::ClientError>;
}

impl ShutdownAckExt for Client {
    fn shutdown_ack(&mut self) -> Result<u64, mwl_serve::ClientError> {
        match self.read_control()? {
            Response::ShutdownAck { drained } => Ok(drained),
            other => Err(mwl_serve::ClientError::Unexpected(Box::new(other))),
        }
    }
}

//! The allocation daemon: listener, bounded priority queue, worker pool.
//!
//! One [`Server`] owns a TCP listener and, once [`Server::serve`] is called,
//! a scoped thread per worker plus one reader thread per client connection.
//! The moving parts and their contracts:
//!
//! * **Admission** happens on the reader thread in two critical sections:
//!   the first checks capacity and reserves a slot (so back-pressure is
//!   exact), then the `accepted` ack is written, and only *then* is the task
//!   pushed where workers can see it — a result line can therefore never
//!   overtake its own ack.  Full queues are refused with a
//!   [`CODE_QUEUE_FULL`] rejection rather than blocking the connection.
//! * **Ordering**: each connection's results stream back in submission
//!   order.  Workers complete in any order; a per-connection reorder buffer
//!   (`ConnOut`) holds early results until their predecessors are written.
//! * **Determinism**: workers run the same [`mwl_driver::solve_job`] path as
//!   the batch driver against a shared read-only width-grid cost cache, with
//!   one persistent [`AllocScratch`] per worker — so result payloads are
//!   byte-identical for every worker count and identical to a direct
//!   [`mwl_driver::run_batch`] over the same jobs (see the parity tests).
//! * **Dedup**: completed results are memoised under a stable content hash
//!   ([`crate::dedup`]); repeat submissions are answered from the cache.
//! * **Shutdown**: a `shutdown` request stops admission ([`CODE_SHUTTING_DOWN`]
//!   rejections), drains every outstanding job, acks, and then stops the
//!   listener, readers and workers.  [`ServerControl::stop`] is the
//!   non-draining hard stop (workers finish at most their current job).
//!
//! [`CODE_QUEUE_FULL`]: crate::wire::CODE_QUEUE_FULL
//! [`CODE_SHUTTING_DOWN`]: crate::wire::CODE_SHUTTING_DOWN

use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

use mwl_core::{AllocError, AllocScratch};
use mwl_driver::{solve_job, width_grid_cache, BatchJob, JobStats};
use mwl_model::fixedpoint::MAX_SIM_WORDLENGTH;
use mwl_model::{CostModel, SonicCostModel};
use mwl_obs::{Histogram, MetricsRegistry, Stopwatch};

use crate::dedup::{job_key, DedupCache};
use crate::wire::{
    CancelOutcome, MetricsReply, Request, Response, StatsSnapshot, SubmitRequest, WireHistogram,
    WireOutcome, CODE_GRAPH_TOO_LARGE, CODE_INVALID_GRAPH, CODE_QUEUE_FULL, CODE_SHUTTING_DOWN,
};

/// How often blocked threads re-check the stop flag.
const POLL: Duration = Duration::from_millis(50);

/// Hard cap on one protocol line; a client exceeding it is disconnected.
const MAX_LINE_BYTES: usize = 8 * 1024 * 1024;

/// Configuration of the daemon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Listen address; use port 0 for an OS-assigned port.
    pub addr: String,
    /// Worker threads solving jobs.
    pub workers: usize,
    /// Maximum number of *queued* (not yet executing) jobs; submissions
    /// beyond it are rejected with [`CODE_QUEUE_FULL`]
    /// (back-pressure is explicit, never blocking).
    ///
    /// [`CODE_QUEUE_FULL`]: crate::wire::CODE_QUEUE_FULL
    pub queue_capacity: usize,
    /// Maximum operations per submitted graph; larger graphs are rejected
    /// with [`CODE_GRAPH_TOO_LARGE`].
    pub max_ops: usize,
    /// Memoise completed results under a content hash and answer repeat
    /// submissions from the cache.
    pub dedup: bool,
    /// Pre-warm the shared cost cache over the full `grid_width`-bit width
    /// grid at startup (graphs arrive after the workers start, so per-graph
    /// warming is impossible without locking; wider queries fall through
    /// safely).  At most [`MAX_SIM_WORDLENGTH`]; [`Server::bind`] rejects
    /// wider grids.
    pub grid_width: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 64,
            max_ops: 512,
            dedup: true,
            grid_width: 32,
        }
    }
}

impl ServerConfig {
    /// Sets the worker count (clamped to at least 1).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the queue capacity (clamped to at least 1).
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Enables or disables the dedup cache.
    #[must_use]
    pub fn with_dedup(mut self, enabled: bool) -> Self {
        self.dedup = enabled;
        self
    }
}

/// A handle that can stop a running server from another thread without
/// draining (workers finish at most their current job).
#[derive(Debug, Clone)]
pub struct ServerControl {
    stop: Arc<AtomicBool>,
}

impl ServerControl {
    /// Requests the server to stop.  Idempotent; takes effect within one
    /// poll interval (~50 ms).
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }
}

/// Task lifecycle states (values of [`Task::state`]).
const STATE_QUEUED: u8 = 0;
const STATE_RUNNING: u8 = 1;
const STATE_DONE: u8 = 2;

/// One admitted job.
#[derive(Debug)]
struct Task {
    /// Global admission sequence number (total order across connections).
    seq: u64,
    /// Scheduling priority (higher first).
    priority: i64,
    /// The client-chosen id, echoed in the result.
    client_id: u64,
    /// Per-connection delivery slot (results stream in `ordinal` order).
    ordinal: u64,
    /// The job itself.
    job: BatchJob,
    /// Dedup content key (when dedup is enabled).
    key: Option<u64>,
    /// Started at admission; read when a worker pops the task to feed the
    /// `serve.queue_wait_ns` histogram.
    admitted: Stopwatch,
    cancelled: AtomicBool,
    state: AtomicU8,
    out: Arc<ConnOut>,
}

/// Max-heap entry: higher priority first, then earlier admission.
#[derive(Debug)]
struct QueueEntry(Arc<Task>);

impl PartialEq for QueueEntry {
    fn eq(&self, other: &Self) -> bool {
        self.0.seq == other.0.seq
    }
}
impl Eq for QueueEntry {}
impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .priority
            .cmp(&other.0.priority)
            .then(other.0.seq.cmp(&self.0.seq))
    }
}

#[derive(Debug, Default)]
struct QueueState {
    heap: BinaryHeap<QueueEntry>,
    /// Admitted-but-not-yet-executing jobs.  Reserved at admission (before
    /// the heap push) so capacity checks are exact.
    queued: usize,
    /// Queued plus executing jobs.
    outstanding: usize,
    /// Admission is closed; outstanding work is draining.
    shutting_down: bool,
    /// Jobs outstanding at the moment the drain began.
    drain_count: u64,
}

#[derive(Debug, Default)]
struct Counters {
    accepted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    rejected: AtomicU64,
}

/// Request-lifecycle latency histograms (see `docs/OBSERVABILITY.md` for
/// the metric taxonomy).  The `Arc` handles are resolved once at startup so
/// the hot paths record lock-free; the registry itself is kept for the
/// `metrics` wire command's snapshot.
///
/// These clocks time the *service* around the allocator, never the
/// allocator itself: result payloads stay byte-identical to a direct batch
/// run (the parity suite), because nothing recorded here flows back into an
/// allocation decision.
#[derive(Debug)]
struct ServeMetrics {
    registry: MetricsRegistry,
    /// Admission (post-ack) to a worker popping the task.
    queue_wait: Arc<Histogram>,
    /// Dedup-cache lookup, hit or miss.
    dedup_lookup: Arc<Histogram>,
    /// The actual solve (dedup misses and dedup-off jobs only).
    alloc: Arc<Histogram>,
    /// Encoding the result line.
    serialize: Arc<Histogram>,
}

impl ServeMetrics {
    fn new() -> Self {
        let registry = MetricsRegistry::new();
        let queue_wait = registry.histogram("serve.queue_wait_ns");
        let dedup_lookup = registry.histogram("serve.dedup_lookup_ns");
        let alloc = registry.histogram("serve.alloc_ns");
        let serialize = registry.histogram("serve.serialize_ns");
        ServeMetrics {
            registry,
            queue_wait,
            dedup_lookup,
            alloc,
            serialize,
        }
    }
}

/// State shared by the listener, readers and workers.
#[derive(Debug)]
struct Shared {
    queue: Mutex<QueueState>,
    work_ready: Condvar,
    drained: Condvar,
    stop: Arc<AtomicBool>,
    dedup: Option<DedupCache>,
    counters: Counters,
    metrics: ServeMetrics,
    seq: AtomicU64,
    config: ServerConfig,
}

impl Shared {
    fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    fn snapshot(&self) -> StatsSnapshot {
        let (queue_depth, in_flight) = {
            let q = self.queue.lock().expect("queue lock poisoned");
            (q.queued as u64, (q.outstanding - q.queued) as u64)
        };
        StatsSnapshot {
            accepted: self.counters.accepted.load(Ordering::Relaxed),
            completed: self.counters.completed.load(Ordering::Relaxed),
            failed: self.counters.failed.load(Ordering::Relaxed),
            cancelled: self.counters.cancelled.load(Ordering::Relaxed),
            rejected: self.counters.rejected.load(Ordering::Relaxed),
            dedup_hits: self.dedup.as_ref().map_or(0, DedupCache::hits),
            dedup_misses: self.dedup.as_ref().map_or(0, DedupCache::misses),
            queue_depth,
            in_flight,
            workers: self.config.workers as u64,
            queue_capacity: self.config.queue_capacity as u64,
        }
    }

    fn metrics_reply(&self) -> MetricsReply {
        let snapshot = self.metrics.registry.snapshot();
        MetricsReply {
            dedup_hits: self.dedup.as_ref().map_or(0, DedupCache::hits),
            dedup_misses: self.dedup.as_ref().map_or(0, DedupCache::misses),
            histograms: snapshot
                .histograms
                .iter()
                .map(|(name, h)| WireHistogram::from_snapshot(name, h))
                .collect(),
        }
    }
}

/// The write half of one client connection: a line writer plus the reorder
/// buffer that restores submission order to out-of-order completions.
///
/// Lock order is `delivery` before `writer`; the queue lock is never held
/// while either is taken.
#[derive(Debug)]
struct ConnOut {
    writer: Mutex<TcpStream>,
    delivery: Mutex<Delivery>,
    /// Set on the first write error; later writes are skipped silently so a
    /// disconnected client never stalls or poisons the worker pool.
    dead: AtomicBool,
}

#[derive(Debug, Default)]
struct Delivery {
    next: u64,
    buffered: BTreeMap<u64, String>,
}

impl ConnOut {
    fn new(stream: TcpStream) -> Self {
        ConnOut {
            writer: Mutex::new(stream),
            delivery: Mutex::new(Delivery::default()),
            dead: AtomicBool::new(false),
        }
    }

    /// Writes one protocol line immediately (control responses: acks,
    /// rejections, stats, errors).
    fn send_line(&self, line: &str) {
        if self.dead.load(Ordering::Relaxed) {
            return;
        }
        let mut writer = self.writer.lock().expect("writer lock poisoned");
        let ok = writer
            .write_all(line.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush());
        if ok.is_err() {
            self.dead.store(true, Ordering::Relaxed);
        }
    }

    /// Queues a *result* line into its per-connection submission-order slot,
    /// flushing every consecutively ready line.
    fn deliver(&self, ordinal: u64, line: String) {
        let mut delivery = self.delivery.lock().expect("delivery lock poisoned");
        if ordinal != delivery.next {
            delivery.buffered.insert(ordinal, line);
            return;
        }
        self.send_line(&line);
        delivery.next += 1;
        loop {
            let next = delivery.next;
            let Some(buffered) = delivery.buffered.remove(&next) else {
                break;
            };
            self.send_line(&buffered);
            delivery.next += 1;
        }
    }
}

/// A bound allocation daemon, ready to serve.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    config: ServerConfig,
    stop: Arc<AtomicBool>,
}

impl Server {
    /// Binds the listener.
    ///
    /// # Errors
    ///
    /// [`std::io::ErrorKind::InvalidInput`] when
    /// [`ServerConfig::grid_width`] exceeds [`MAX_SIM_WORDLENGTH`], the cost
    /// cache's ceiling; otherwise the I/O error when the address cannot be
    /// bound.
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        if config.grid_width > MAX_SIM_WORDLENGTH {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "grid width {} exceeds the {MAX_SIM_WORDLENGTH}-bit cost-cache ceiling",
                    config.grid_width
                ),
            ));
        }
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        Ok(Server {
            listener,
            config,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The actually bound address (resolves port 0).
    ///
    /// # Errors
    ///
    /// Propagates the I/O error when the socket has no local address.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A stop handle usable from any thread.
    #[must_use]
    pub fn control(&self) -> ServerControl {
        ServerControl {
            stop: Arc::clone(&self.stop),
        }
    }

    /// Runs the daemon until stopped (by a client `shutdown` request or
    /// [`ServerControl::stop`]) and returns the final statistics.
    ///
    /// The given cost model is wrapped in a read-only
    /// [`width_grid_cache`] shared by all workers.
    pub fn serve<C: CostModel + Sync>(self, cost: &C) -> StatsSnapshot {
        let config = self.config.clone();
        let grid = width_grid_cache(cost, config.grid_width);
        let model: &(dyn CostModel + Sync) = &grid;
        let shared = Shared {
            queue: Mutex::new(QueueState::default()),
            work_ready: Condvar::new(),
            drained: Condvar::new(),
            stop: Arc::clone(&self.stop),
            dedup: config.dedup.then(DedupCache::new),
            counters: Counters::default(),
            metrics: ServeMetrics::new(),
            seq: AtomicU64::new(0),
            config,
        };
        let shared = &shared;

        thread::scope(|scope| {
            for _ in 0..shared.config.workers.max(1) {
                scope.spawn(move || worker_loop(shared, model));
            }
            // The accept loop runs on the calling thread; readers are
            // spawned into the same scope so everything joins before serve
            // returns.
            while !shared.stopped() {
                match self.listener.accept() {
                    Ok((stream, _peer)) => {
                        let stream = crate::net::accepted(stream);
                        scope.spawn(move || connection_loop(shared, stream));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        thread::sleep(POLL);
                    }
                    Err(_) => thread::sleep(POLL),
                }
            }
        });
        shared.snapshot()
    }
}

/// One worker: pops the highest-priority task, solves (or skips) it, and
/// delivers the result into the owning connection's order slot.
fn worker_loop(shared: &Shared, model: &(dyn CostModel + Sync)) {
    let mut scratch = AllocScratch::new();
    loop {
        let task = {
            let mut queue = shared.queue.lock().expect("queue lock poisoned");
            loop {
                if shared.stopped() {
                    return;
                }
                if let Some(entry) = queue.heap.pop() {
                    queue.queued -= 1;
                    break entry.0;
                }
                if queue.shutting_down && queue.outstanding == 0 {
                    return;
                }
                queue = shared
                    .work_ready
                    .wait_timeout(queue, POLL)
                    .expect("queue lock poisoned")
                    .0;
            }
        };

        task.state.store(STATE_RUNNING, Ordering::SeqCst);
        shared.metrics.queue_wait.record(task.admitted.elapsed_ns());
        let outcome = if task.cancelled.load(Ordering::SeqCst) {
            // Cancelled while queued: skip the solve entirely.  The dedup
            // cache is not consulted, so its counters reconcile with jobs
            // actually considered for solving.
            shared.counters.cancelled.fetch_add(1, Ordering::Relaxed);
            WireOutcome::Cancelled
        } else {
            let result = solve_or_reuse(shared, model, &task, &mut scratch);
            if task.cancelled.load(Ordering::SeqCst) {
                // Cancelled mid-flight: the solve ran to completion (the
                // allocator has no preemption points) but the client asked
                // for — and gets — a cancelled result.
                shared.counters.cancelled.fetch_add(1, Ordering::Relaxed);
                WireOutcome::Cancelled
            } else {
                match &result {
                    Ok(stats) => WireOutcome::Ok(stats.into()),
                    Err(e) => {
                        shared.counters.failed.fetch_add(1, Ordering::Relaxed);
                        WireOutcome::Failed {
                            error: e.to_string(),
                        }
                    }
                }
            }
        };
        let serialize = Stopwatch::start();
        let line = Response::Result {
            id: task.client_id,
            outcome,
        }
        .encode();
        shared.metrics.serialize.record(serialize.elapsed_ns());
        shared.counters.completed.fetch_add(1, Ordering::Relaxed);
        task.out.deliver(task.ordinal, line);
        task.state.store(STATE_DONE, Ordering::SeqCst);

        let mut queue = shared.queue.lock().expect("queue lock poisoned");
        queue.outstanding -= 1;
        if queue.outstanding == 0 {
            shared.drained.notify_all();
            if queue.shutting_down {
                // Wake idle workers so they observe the drained state and
                // exit.
                shared.work_ready.notify_all();
            }
        }
    }
}

/// Consults the dedup cache (when enabled), solving on a miss.
fn solve_or_reuse(
    shared: &Shared,
    model: &(dyn CostModel + Sync),
    task: &Task,
    scratch: &mut AllocScratch,
) -> Result<JobStats, AllocError> {
    let solve = |scratch: &mut AllocScratch| {
        // Index 0 for every job: the index only seeds the (disabled) RTL
        // oracle and names the outcome slot, so result payloads depend on
        // nothing but the job content — the invariant the dedup cache and
        // the determinism suite rely on.
        let sw = Stopwatch::start();
        let result = solve_job(0, &task.job, model, 1, scratch).result;
        shared.metrics.alloc.record(sw.elapsed_ns());
        result
    };
    match (&shared.dedup, task.key) {
        (Some(cache), Some(key)) => {
            let sw = Stopwatch::start();
            let cached = cache.lookup(key);
            shared.metrics.dedup_lookup.record(sw.elapsed_ns());
            match cached {
                Some(result) => result,
                None => {
                    let result = solve(scratch);
                    cache.insert(key, result.clone());
                    result
                }
            }
        }
        _ => solve(scratch),
    }
}

/// Per-connection bookkeeping for cancellation: client id → task.
type TaskRegistry = Mutex<HashMap<u64, Arc<Task>>>;

/// One client connection: reads newline-delimited requests until the client
/// disconnects or the server stops.
fn connection_loop(shared: &Shared, stream: TcpStream) {
    let reader_result = stream.try_clone();
    let out = Arc::new(ConnOut::new(stream));
    let Ok(mut reader) = reader_result else {
        return;
    };
    if reader.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    let tasks: TaskRegistry = Mutex::new(HashMap::new());
    let mut next_ordinal: u64 = 0;
    let mut buffer: Vec<u8> = Vec::new();
    // `buffer[..scanned]` is known to hold no newline, so each received
    // byte is searched once however long a line grows.
    let mut scanned = 0;
    let mut chunk = [0u8; 4096];

    'conn: loop {
        if shared.stopped() {
            break;
        }
        match reader.read(&mut chunk) {
            Ok(0) => break, // client closed; outstanding jobs still drain
            Ok(n) => {
                buffer.extend_from_slice(&chunk[..n]);
                // Manual line splitting: a read timeout must not drop the
                // partial line already received, so bytes stay buffered
                // until their newline arrives.
                let mut start = 0;
                while let Some(pos) = buffer[scanned..].iter().position(|&b| b == b'\n') {
                    let end = scanned + pos;
                    scanned = end + 1;
                    let line = String::from_utf8_lossy(&buffer[start..end]);
                    let line = line.trim();
                    start = scanned;
                    if line.is_empty() {
                        continue;
                    }
                    if handle_line(shared, &out, &tasks, &mut next_ordinal, line).is_break() {
                        break 'conn;
                    }
                }
                buffer.drain(..start);
                scanned = buffer.len();
                if buffer.len() > MAX_LINE_BYTES {
                    out.send_line(
                        &Response::Error {
                            message: "line exceeds the 8 MiB protocol limit".to_string(),
                        }
                        .encode(),
                    );
                    break;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        }
    }
    // Stop result deliveries from touching a socket the reader abandoned.
    if shared.stopped() {
        out.dead.store(true, Ordering::Relaxed);
    }
}

/// Handles one parsed-or-unparsable request line.  Returns `Break` when the
/// connection should close (after a drain-complete shutdown ack).
fn handle_line(
    shared: &Shared,
    out: &Arc<ConnOut>,
    tasks: &TaskRegistry,
    next_ordinal: &mut u64,
    line: &str,
) -> std::ops::ControlFlow<()> {
    use std::ops::ControlFlow;
    match Request::parse(line) {
        Err(e) => {
            // Malformed input is answered, not fatal: the connection (and
            // any queued work on it) lives on.
            out.send_line(
                &Response::Error {
                    message: e.to_string(),
                }
                .encode(),
            );
            ControlFlow::Continue(())
        }
        Ok(Request::Ping) => {
            out.send_line(&Response::Pong.encode());
            ControlFlow::Continue(())
        }
        Ok(Request::Stats) => {
            out.send_line(&Response::Stats(shared.snapshot()).encode());
            ControlFlow::Continue(())
        }
        Ok(Request::Metrics) => {
            out.send_line(&Response::Metrics(shared.metrics_reply()).encode());
            ControlFlow::Continue(())
        }
        Ok(Request::Cancel { id }) => {
            out.send_line(
                &Response::CancelAck {
                    id,
                    outcome: cancel_task(tasks, id),
                }
                .encode(),
            );
            ControlFlow::Continue(())
        }
        Ok(Request::Submit(submit)) => {
            handle_submit(shared, out, tasks, next_ordinal, submit);
            ControlFlow::Continue(())
        }
        Ok(Request::Shutdown) => {
            let drained = drain(shared);
            out.send_line(&Response::ShutdownAck { drained }.encode());
            shared.stop.store(true, Ordering::SeqCst);
            shared.work_ready.notify_all();
            ControlFlow::Break(())
        }
    }
}

/// Marks a task cancelled, reporting what state it was found in.
fn cancel_task(tasks: &TaskRegistry, id: u64) -> CancelOutcome {
    let tasks = tasks.lock().expect("task registry poisoned");
    let Some(task) = tasks.get(&id) else {
        return CancelOutcome::Unknown;
    };
    if task.state.load(Ordering::SeqCst) == STATE_DONE {
        return CancelOutcome::Unknown;
    }
    if task.cancelled.swap(true, Ordering::SeqCst) {
        return CancelOutcome::Unknown; // already cancelled earlier
    }
    if task.state.load(Ordering::SeqCst) == STATE_RUNNING {
        CancelOutcome::InFlight
    } else {
        CancelOutcome::Queued
    }
}

/// Admission control plus the ack-before-publish submit path.
fn handle_submit(
    shared: &Shared,
    out: &Arc<ConnOut>,
    tasks: &TaskRegistry,
    next_ordinal: &mut u64,
    submit: SubmitRequest,
) {
    let reject = |code: u32, reason: &str| {
        shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
        out.send_line(
            &Response::Rejected {
                id: submit.id,
                code,
                reason: reason.to_string(),
            }
            .encode(),
        );
    };

    if submit.graph.ops.len() > shared.config.max_ops {
        reject(CODE_GRAPH_TOO_LARGE, "graph_too_large");
        return;
    }
    let graph = match submit.graph.to_graph() {
        Ok(graph) => graph,
        Err(_) => {
            reject(CODE_INVALID_GRAPH, "invalid_graph");
            return;
        }
    };

    // First critical section: exact admission.  The slot is reserved
    // (queued/outstanding incremented) but nothing is published yet.
    {
        let mut queue = shared.queue.lock().expect("queue lock poisoned");
        if queue.shutting_down || shared.stopped() {
            drop(queue);
            reject(CODE_SHUTTING_DOWN, "shutting_down");
            return;
        }
        if queue.queued >= shared.config.queue_capacity {
            drop(queue);
            reject(CODE_QUEUE_FULL, "queue_full");
            return;
        }
        queue.queued += 1;
        queue.outstanding += 1;
    }
    shared.counters.accepted.fetch_add(1, Ordering::Relaxed);

    // The ack is written BEFORE the task becomes visible to workers, so the
    // client can never see a result line precede its `accepted`.
    out.send_line(&Response::Accepted { id: submit.id }.encode());

    let label = submit.label.unwrap_or_else(|| format!("job-{}", submit.id));
    let config = submit.config.to_alloc_config();
    let portfolio = submit.config.to_portfolio_spec();
    let key = shared
        .dedup
        .as_ref()
        .map(|_| job_key(&graph, &submit.latency, &config, portfolio));
    let mut job = BatchJob::new(label, graph, submit.latency).with_config(config);
    if let Some(spec) = portfolio {
        job = job.with_portfolio(spec);
    }
    let task = Arc::new(Task {
        seq: shared.seq.fetch_add(1, Ordering::Relaxed),
        priority: submit.priority,
        client_id: submit.id,
        ordinal: *next_ordinal,
        job,
        key,
        admitted: Stopwatch::start(),
        cancelled: AtomicBool::new(false),
        state: AtomicU8::new(STATE_QUEUED),
        out: Arc::clone(out),
    });
    *next_ordinal += 1;
    {
        // A resubmitted id replaces the registry entry: cancel always
        // targets the most recent submission under that id.
        let mut tasks = tasks.lock().expect("task registry poisoned");
        tasks.insert(submit.id, Arc::clone(&task));
    }

    // Second critical section: publish.  Kept separate so no TCP write ever
    // happens under the queue lock.
    {
        let mut queue = shared.queue.lock().expect("queue lock poisoned");
        queue.heap.push(QueueEntry(task));
    }
    shared.work_ready.notify_one();
}

/// Closes admission and blocks until every outstanding job has completed.
/// Returns the number of jobs that were outstanding when the drain began.
fn drain(shared: &Shared) -> u64 {
    let drained = {
        let mut queue = shared.queue.lock().expect("queue lock poisoned");
        if !queue.shutting_down {
            queue.shutting_down = true;
            queue.drain_count = queue.outstanding as u64;
        }
        queue.drain_count
    };
    shared.work_ready.notify_all();
    loop {
        let queue = shared.queue.lock().expect("queue lock poisoned");
        if queue.outstanding == 0 || shared.stopped() {
            return drained;
        }
        drop(
            shared
                .drained
                .wait_timeout(queue, POLL)
                .expect("queue lock poisoned"),
        );
    }
}

/// A server running on its own (owned) thread with the default SONIC cost
/// model — the convenience wrapper used by the `serve` binary and the test
/// suites.
#[derive(Debug)]
pub struct SpawnedServer {
    addr: SocketAddr,
    control: ServerControl,
    handle: thread::JoinHandle<StatsSnapshot>,
}

impl SpawnedServer {
    /// Binds and starts serving on a background thread.
    ///
    /// # Errors
    ///
    /// Propagates bind errors.
    pub fn start(config: ServerConfig) -> std::io::Result<SpawnedServer> {
        let server = Server::bind(config)?;
        let addr = server.local_addr()?;
        let control = server.control();
        let handle = thread::Builder::new()
            .name("mwl-serve".to_string())
            .spawn(move || {
                let cost = SonicCostModel::default();
                server.serve(&cost)
            })?;
        Ok(SpawnedServer {
            addr,
            control,
            handle,
        })
    }

    /// The bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A stop handle.
    #[must_use]
    pub fn control(&self) -> ServerControl {
        self.control.clone()
    }

    /// Waits for the server to stop (after a client `shutdown` or
    /// [`ServerControl::stop`]) and returns the final statistics.
    ///
    /// # Panics
    ///
    /// Panics if the server thread itself panicked.
    #[must_use]
    pub fn join(self) -> StatsSnapshot {
        self.handle.join().expect("server thread panicked")
    }

    /// Hard-stops the server and waits for it.
    #[must_use]
    pub fn stop_and_join(self) -> StatsSnapshot {
        self.control.stop();
        self.join()
    }
}

//! The wire protocol of the allocation service.
//!
//! Clients and server exchange newline-delimited JSON objects over a plain
//! TCP stream: every line is one complete [`Request`] or [`Response`].  The
//! protocol is deliberately small — submit / cancel / stats / ping /
//! shutdown — and every message type round-trips byte-losslessly through
//! [`crate::json`] (property-tested in `tests/wire_roundtrip.rs`).
//!
//! Numbers on the wire are integers only; the encoder is canonical (fixed
//! field order, optional fields omitted rather than `null`), so re-encoding
//! a parsed message reproduces the original line.

use mwl_core::{AllocConfig, BindingCertificate, PortfolioSpec};
use mwl_driver::{area_breakdown_json, JobStats, LatencySpec};
use mwl_model::{
    AreaBreakdown, Cycles, ModelError, OpKind, OpShape, ResourceClass, SequencingGraph,
};
use mwl_sched::SchedulePriority;

use crate::json::{Json, JsonError, ObjectBuilder};

/// Rejection code: the submitted graph is not a valid sequencing graph.
pub const CODE_INVALID_GRAPH: u32 = 400;
/// Rejection code: the submitted graph exceeds the server's size limit.
pub const CODE_GRAPH_TOO_LARGE: u32 = 413;
/// Rejection code: the bounded job queue is full (back-pressure; retry
/// later).
pub const CODE_QUEUE_FULL: u32 = 429;
/// Rejection code: the server is draining and no longer accepts work.
pub const CODE_SHUTTING_DOWN: u32 = 503;

/// A parse failure for a protocol message: either invalid JSON or a
/// structurally invalid message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for WireError {}

impl From<JsonError> for WireError {
    fn from(e: JsonError) -> Self {
        WireError(e.to_string())
    }
}

fn missing(field: &str) -> WireError {
    WireError(format!("missing or invalid field '{field}'"))
}

/// A sequencing graph in wire form: operation shapes in id order plus
/// dependence edges as index pairs.
///
/// Unlike [`SequencingGraph`] this type carries *unvalidated* structure —
/// converting to a real graph via [`WireGraph::to_graph`] can fail (cycles,
/// zero widths, dangling edge endpoints), which the server maps to a
/// [`CODE_INVALID_GRAPH`] rejection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireGraph {
    /// Operation shapes in id order.
    pub ops: Vec<OpShape>,
    /// Dependence edges `(from, to)` as operation indices.
    pub edges: Vec<(u32, u32)>,
}

impl WireGraph {
    /// Captures an existing graph (names are dropped; they do not affect
    /// allocation).
    #[must_use]
    pub fn from_graph(graph: &SequencingGraph) -> Self {
        WireGraph {
            ops: graph.operations().iter().map(|o| o.shape()).collect(),
            edges: graph
                .edges()
                .iter()
                .map(|e| (e.from.index() as u32, e.to.index() as u32))
                .collect(),
        }
    }

    /// Validates and builds the sequencing graph.
    ///
    /// # Errors
    ///
    /// Propagates the first [`ModelError`] (empty graph, invalid wordlength,
    /// unknown edge endpoint, duplicate edge, self-dependency or cycle).
    pub fn to_graph(&self) -> Result<SequencingGraph, ModelError> {
        let mut b = mwl_model::SequencingGraphBuilder::new();
        let ids: Vec<_> = self
            .ops
            .iter()
            .map(|&shape| b.add_operation(shape))
            .collect();
        for &(from, to) in &self.edges {
            let get = |i: u32| {
                ids.get(i as usize)
                    .copied()
                    .ok_or(ModelError::UnknownOperation(mwl_model::OpId::new(i)))
            };
            b.add_dependency(get(from)?, get(to)?)?;
        }
        b.build()
    }

    fn to_json(&self) -> Json {
        let ops = self
            .ops
            .iter()
            .map(|shape| match *shape {
                OpShape::Additive { kind, width } => ObjectBuilder::new()
                    .field("op", if kind == OpKind::Add { "add" } else { "sub" })
                    .field("width", width)
                    .build(),
                OpShape::Multiplicative { a, b } => ObjectBuilder::new()
                    .field("op", "mul")
                    .field("a", a)
                    .field("b", b)
                    .build(),
            })
            .collect();
        let edges = self
            .edges
            .iter()
            .map(|&(from, to)| {
                Json::Array(vec![Json::Int(i64::from(from)), Json::Int(i64::from(to))])
            })
            .collect();
        ObjectBuilder::new()
            .field("ops", Json::Array(ops))
            .field("edges", Json::Array(edges))
            .build()
    }

    fn from_json(v: &Json) -> Result<Self, WireError> {
        let width_of = |obj: &Json, key: &str| -> Result<u32, WireError> {
            let raw = obj
                .get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| missing(key))?;
            u32::try_from(raw).map_err(|_| missing(key))
        };
        let mut ops = Vec::new();
        for op in v
            .get("ops")
            .and_then(Json::as_array)
            .ok_or_else(|| missing("ops"))?
        {
            let kind = op
                .get("op")
                .and_then(Json::as_str)
                .ok_or_else(|| missing("op"))?;
            ops.push(match kind {
                "add" => OpShape::adder(width_of(op, "width")?),
                "sub" => OpShape::subtractor(width_of(op, "width")?),
                "mul" => OpShape::multiplier(width_of(op, "a")?, width_of(op, "b")?),
                other => return Err(WireError(format!("unknown op kind '{other}'"))),
            });
        }
        let mut edges = Vec::new();
        for edge in v
            .get("edges")
            .and_then(Json::as_array)
            .ok_or_else(|| missing("edges"))?
        {
            let pair = edge.as_array().ok_or_else(|| missing("edges"))?;
            if pair.len() != 2 {
                return Err(WireError("edge must be a [from, to] pair".into()));
            }
            let index = |v: &Json| -> Result<u32, WireError> {
                v.as_u64()
                    .and_then(|raw| u32::try_from(raw).ok())
                    .ok_or_else(|| missing("edges"))
            };
            edges.push((index(&pair[0])?, index(&pair[1])?));
        }
        Ok(WireGraph { ops, edges })
    }
}

/// Allocator options in wire form.
///
/// The defaults mirror [`AllocConfig::new`], so an omitted `config` object
/// submits the job exactly as [`mwl_driver::BatchJob::new`] would run it —
/// the property the serve-vs-`run_batch` parity tests rely on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobConfig {
    /// Run the post-bind instance-merging pass (default `true`).
    pub instance_merging: bool,
    /// Grow cliques during binding (default `true`).
    pub grow_cliques: bool,
    /// Use input-order scheduling priority instead of critical-path
    /// (default `false`).
    pub input_order_priority: bool,
    /// Use the first-refinable refinement policy instead of
    /// bound-critical-path (default `false`).
    pub first_refinable: bool,
    /// Explicit adder-instance bound `N_add` (default: allocator searches).
    pub adder_bound: Option<u64>,
    /// Explicit multiplier-instance bound `N_mul` (default: allocator
    /// searches).
    pub multiplier_bound: Option<u64>,
    /// Override of the allocator's iteration safety budget.
    pub max_iterations: Option<u64>,
    /// Master seed of a portfolio race (see [`mwl_core::portfolio`]).
    /// Must be given together with
    /// [`portfolio_variants`](Self::portfolio_variants); a submission with
    /// only one of the pair is rejected as malformed.
    pub portfolio_seed: Option<u64>,
    /// Number of portfolio variants to race.  Must be given together with
    /// [`portfolio_seed`](Self::portfolio_seed).
    pub portfolio_variants: Option<u64>,
}

impl Default for JobConfig {
    fn default() -> Self {
        JobConfig {
            instance_merging: true,
            grow_cliques: true,
            input_order_priority: false,
            first_refinable: false,
            adder_bound: None,
            multiplier_bound: None,
            max_iterations: None,
            portfolio_seed: None,
            portfolio_variants: None,
        }
    }
}

impl JobConfig {
    /// Lowers the wire form to a real [`AllocConfig`] (the latency
    /// constraint is filled in from the job's [`LatencySpec`] at run time).
    #[must_use]
    pub fn to_alloc_config(&self) -> AllocConfig {
        let mut config = AllocConfig::new(0)
            .with_instance_merging(self.instance_merging)
            .with_clique_growth(self.grow_cliques)
            .with_priority(if self.input_order_priority {
                SchedulePriority::InputOrder
            } else {
                SchedulePriority::CriticalPath
            })
            .with_refinement(if self.first_refinable {
                mwl_core::RefinementPolicy::FirstRefinable
            } else {
                mwl_core::RefinementPolicy::BoundCriticalPath
            });
        if self.adder_bound.is_some() || self.multiplier_bound.is_some() {
            let mut bounds = std::collections::BTreeMap::new();
            if let Some(n) = self.adder_bound {
                bounds.insert(ResourceClass::Adder, n as usize);
            }
            if let Some(n) = self.multiplier_bound {
                bounds.insert(ResourceClass::Multiplier, n as usize);
            }
            config = config.with_resource_bounds(bounds);
        }
        if let Some(n) = self.max_iterations {
            config.max_iterations = n as usize;
        }
        config
    }

    /// The portfolio request carried by this config, when both fields are
    /// present (the parser rejects half-specified pairs, so `None` here
    /// always means "plain allocator").
    #[must_use]
    pub fn to_portfolio_spec(&self) -> Option<PortfolioSpec> {
        match (self.portfolio_seed, self.portfolio_variants) {
            (Some(seed), Some(variants)) => Some(PortfolioSpec::new(seed, variants as usize)),
            _ => None,
        }
    }

    fn to_json(&self) -> Json {
        let mut b = ObjectBuilder::new()
            .field("instance_merging", self.instance_merging)
            .field("grow_cliques", self.grow_cliques)
            .field("input_order_priority", self.input_order_priority)
            .field("first_refinable", self.first_refinable);
        if let Some(n) = self.adder_bound {
            b = b.field("adder_bound", n);
        }
        if let Some(n) = self.multiplier_bound {
            b = b.field("multiplier_bound", n);
        }
        if let Some(n) = self.max_iterations {
            b = b.field("max_iterations", n);
        }
        if let Some(n) = self.portfolio_seed {
            b = b.field("portfolio_seed", n);
        }
        if let Some(n) = self.portfolio_variants {
            b = b.field("portfolio_variants", n);
        }
        b.build()
    }

    fn from_json(v: &Json) -> Result<Self, WireError> {
        let defaults = JobConfig::default();
        let flag = |key: &str, default: bool| match v.get(key) {
            None => Ok(default),
            Some(j) => j.as_bool().ok_or_else(|| missing(key)),
        };
        let opt = |key: &str| match v.get(key) {
            None => Ok(None),
            Some(j) => j.as_u64().map(Some).ok_or_else(|| missing(key)),
        };
        let config = JobConfig {
            instance_merging: flag("instance_merging", defaults.instance_merging)?,
            grow_cliques: flag("grow_cliques", defaults.grow_cliques)?,
            input_order_priority: flag("input_order_priority", defaults.input_order_priority)?,
            first_refinable: flag("first_refinable", defaults.first_refinable)?,
            adder_bound: opt("adder_bound")?,
            multiplier_bound: opt("multiplier_bound")?,
            max_iterations: opt("max_iterations")?,
            portfolio_seed: opt("portfolio_seed")?,
            portfolio_variants: opt("portfolio_variants")?,
        };
        if config.portfolio_seed.is_some() != config.portfolio_variants.is_some() {
            return Err(WireError(
                "portfolio_seed and portfolio_variants must be given together".into(),
            ));
        }
        Ok(config)
    }
}

fn latency_to_json(latency: &LatencySpec) -> Json {
    let (kind, value) = match *latency {
        LatencySpec::Absolute(v) => ("absolute", v),
        LatencySpec::RelaxSteps(v) => ("relax_steps", v),
        LatencySpec::RelaxPercent(v) => ("relax_percent", v),
    };
    ObjectBuilder::new()
        .field("kind", kind)
        .field("value", value)
        .build()
}

fn latency_from_json(v: &Json) -> Result<LatencySpec, WireError> {
    let kind = v
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| missing("kind"))?;
    let value: Cycles = v
        .get("value")
        .and_then(Json::as_u64)
        .and_then(|raw| u32::try_from(raw).ok())
        .ok_or_else(|| missing("value"))?;
    match kind {
        "absolute" => Ok(LatencySpec::Absolute(value)),
        "relax_steps" => Ok(LatencySpec::RelaxSteps(value)),
        "relax_percent" => Ok(LatencySpec::RelaxPercent(value)),
        other => Err(WireError(format!("unknown latency kind '{other}'"))),
    }
}

/// One job submission.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitRequest {
    /// Client-chosen job identifier, unique per connection.  Results and
    /// cancellations refer to it.
    pub id: u64,
    /// Optional human-readable label echoed into logs.
    pub label: Option<String>,
    /// Scheduling priority: higher runs earlier; ties run in submission
    /// order.  Default 0.
    pub priority: i64,
    /// The graph to allocate.
    pub graph: WireGraph,
    /// The latency budget.
    pub latency: LatencySpec,
    /// Allocator options.
    pub config: JobConfig,
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a job.
    Submit(SubmitRequest),
    /// Cancel a previously submitted job (by its client-chosen id).
    Cancel {
        /// The id used at submission.
        id: u64,
    },
    /// Request a server statistics snapshot.
    Stats,
    /// Request the server's telemetry snapshot (request-lifecycle latency
    /// histograms plus dedup counters).
    Metrics,
    /// Liveness probe.
    Ping,
    /// Drain all outstanding jobs, then stop the server.
    Shutdown,
}

impl Request {
    /// Encodes the request as one protocol line (no trailing newline).
    #[must_use]
    pub fn encode(&self) -> String {
        match self {
            Request::Submit(s) => {
                let mut b = ObjectBuilder::new()
                    .field("type", "submit")
                    .field("id", s.id);
                if let Some(label) = &s.label {
                    b = b.field("label", label.as_str());
                }
                b.field("priority", Json::Int(s.priority))
                    .field("graph", s.graph.to_json())
                    .field("latency", latency_to_json(&s.latency))
                    .field("config", s.config.to_json())
                    .build()
                    .encode()
            }
            Request::Cancel { id } => ObjectBuilder::new()
                .field("type", "cancel")
                .field("id", *id)
                .build()
                .encode(),
            Request::Stats => ObjectBuilder::new().field("type", "stats").build().encode(),
            Request::Metrics => ObjectBuilder::new()
                .field("type", "metrics")
                .build()
                .encode(),
            Request::Ping => ObjectBuilder::new().field("type", "ping").build().encode(),
            Request::Shutdown => ObjectBuilder::new()
                .field("type", "shutdown")
                .build()
                .encode(),
        }
    }

    /// Parses one protocol line.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] describing the first syntactic or structural
    /// problem; the server answers these with a `type: "error"` response and
    /// keeps the connection open.
    pub fn parse(line: &str) -> Result<Request, WireError> {
        let v = Json::parse(line)?;
        let kind = v
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| missing("type"))?;
        match kind {
            "submit" => {
                let id = v
                    .get("id")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| missing("id"))?;
                let label = match v.get("label") {
                    None => None,
                    Some(j) => Some(j.as_str().ok_or_else(|| missing("label"))?.to_string()),
                };
                let priority = match v.get("priority") {
                    None => 0,
                    Some(j) => j.as_i64().ok_or_else(|| missing("priority"))?,
                };
                let graph = WireGraph::from_json(v.get("graph").ok_or_else(|| missing("graph"))?)?;
                let latency =
                    latency_from_json(v.get("latency").ok_or_else(|| missing("latency"))?)?;
                let config = match v.get("config") {
                    None => JobConfig::default(),
                    Some(j) => JobConfig::from_json(j)?,
                };
                Ok(Request::Submit(SubmitRequest {
                    id,
                    label,
                    priority,
                    graph,
                    latency,
                    config,
                }))
            }
            "cancel" => Ok(Request::Cancel {
                id: v
                    .get("id")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| missing("id"))?,
            }),
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(WireError(format!("unknown request type '{other}'"))),
        }
    }
}

/// Portfolio-race statistics of one job, in wire form (present only when
/// the submission requested a portfolio via
/// [`JobConfig::portfolio_seed`]/[`JobConfig::portfolio_variants`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WirePortfolio {
    /// The master seed.
    pub seed: u64,
    /// Variants raced.
    pub variants: u64,
    /// Variants that solved.
    pub solved: u64,
    /// Variants that failed or panicked.
    pub failed: u64,
    /// Winning variant index (0 = the plain configuration).
    pub winner: u64,
    /// The winner's mutation label.
    pub winner_label: String,
    /// Variant 0's area when it solved.
    pub variant0_area: Option<u64>,
    /// Area saved relative to variant 0.
    pub area_saved: u64,
}

impl From<&mwl_core::PortfolioStats> for WirePortfolio {
    fn from(p: &mwl_core::PortfolioStats) -> Self {
        WirePortfolio {
            seed: p.seed,
            variants: p.variants as u64,
            solved: p.solved as u64,
            failed: p.failed as u64,
            winner: p.winner as u64,
            winner_label: p.winner_label.clone(),
            variant0_area: p.variant0_area,
            area_saved: p.area_saved,
        }
    }
}

/// The statistics of one successfully allocated job, in wire form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireStats {
    /// Resolved latency budget λ.
    pub lambda: Cycles,
    /// Datapath area (the functional-unit component).
    pub area: u64,
    /// Per-component area (functional units, registers, muxes) under the
    /// server's storage coefficients.
    pub area_breakdown: AreaBreakdown,
    /// Optimality certificate of the datapath's register binding.
    pub certificate: BindingCertificate,
    /// Achieved latency.
    pub latency: Cycles,
    /// Resource instances in the datapath.
    pub instances: u64,
    /// Wordlength-refinement iterations.
    pub refinements: u64,
    /// Resource-bound escalations.
    pub escalations: u64,
    /// Accepted instance merges.
    pub merges: u64,
    /// Portfolio-race statistics; `None` for plain jobs.
    pub portfolio: Option<WirePortfolio>,
}

impl From<&JobStats> for WireStats {
    fn from(s: &JobStats) -> Self {
        WireStats {
            lambda: s.lambda,
            area: s.area,
            area_breakdown: s.area_breakdown,
            certificate: s.certificate,
            latency: s.latency,
            instances: s.instances as u64,
            refinements: s.refinements as u64,
            escalations: s.bound_escalations as u64,
            merges: s.merges as u64,
            portfolio: s.portfolio.as_ref().map(WirePortfolio::from),
        }
    }
}

/// How a job ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireOutcome {
    /// The job produced a datapath.
    Ok(WireStats),
    /// The allocator failed (e.g. an infeasible absolute latency).
    Failed {
        /// Human-readable allocation error.
        error: String,
    },
    /// The job was cancelled before or during execution.
    Cancelled,
}

/// What the server found when asked to cancel a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The job was still queued; it will be skipped.
    Queued,
    /// The job was executing; its result will be reported as cancelled.
    InFlight,
    /// No such outstanding job on this connection (unknown id, already
    /// completed, or already cancelled).
    Unknown,
}

impl CancelOutcome {
    fn as_str(self) -> &'static str {
        match self {
            CancelOutcome::Queued => "queued",
            CancelOutcome::InFlight => "in_flight",
            CancelOutcome::Unknown => "unknown",
        }
    }
}

/// A server statistics snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Jobs admitted into the queue.
    pub accepted: u64,
    /// Jobs whose result was produced (ok or failed, including cancelled
    /// deliveries).
    pub completed: u64,
    /// Completed jobs that failed with an allocation error.
    pub failed: u64,
    /// Completed jobs that were cancelled.
    pub cancelled: u64,
    /// Submissions rejected (queue full, shutting down, invalid or oversized
    /// graphs).
    pub rejected: u64,
    /// Dedup-cache hits.
    pub dedup_hits: u64,
    /// Dedup-cache misses (jobs actually solved).
    pub dedup_misses: u64,
    /// Jobs currently waiting in the queue.
    pub queue_depth: u64,
    /// Jobs currently executing.
    pub in_flight: u64,
    /// Worker threads serving the queue.
    pub workers: u64,
    /// Capacity of the bounded job queue: submissions beyond it are
    /// rejected with [`CODE_QUEUE_FULL`].  Clients use this to size
    /// back-pressure experiments instead of guessing.
    pub queue_capacity: u64,
}

/// One latency histogram in wire form: an integer digest (count, sum,
/// min/max and the p50/p95/p99 quantiles in nanoseconds) of a
/// [`mwl_obs::Histogram`], not the raw buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireHistogram {
    /// Metric name (e.g. `"serve.queue_wait_ns"`).
    pub name: String,
    /// Recorded samples.
    pub count: u64,
    /// Exact sum of all samples.
    pub sum: u64,
    /// Exact smallest sample (`0` when empty).
    pub min: u64,
    /// Exact largest sample (`0` when empty).
    pub max: u64,
    /// Median (≈3% bucket resolution).
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
}

impl WireHistogram {
    /// Digests a histogram snapshot under its registry name.
    #[must_use]
    pub fn from_snapshot(name: &str, h: &mwl_obs::HistogramSnapshot) -> Self {
        WireHistogram {
            name: name.to_string(),
            count: h.count,
            sum: h.sum,
            min: h.min,
            max: h.max,
            p50: h.percentile(50.0),
            p95: h.percentile(95.0),
            p99: h.percentile(99.0),
        }
    }
}

/// A server telemetry snapshot: the request-lifecycle latency histograms
/// plus the dedup counters, name-sorted so the encoding is canonical.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsReply {
    /// Dedup-cache hits.
    pub dedup_hits: u64,
    /// Dedup-cache misses (jobs actually solved).
    pub dedup_misses: u64,
    /// Latency histograms in registry (lexicographic) order.
    pub histograms: Vec<WireHistogram>,
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The submission was admitted; a `result` for the same id will follow.
    Accepted {
        /// The client-chosen job id.
        id: u64,
    },
    /// The submission was refused; no result will follow.
    Rejected {
        /// The client-chosen job id.
        id: u64,
        /// One of the `CODE_*` constants.
        code: u32,
        /// Machine-readable reason (`"queue_full"`, `"shutting_down"`,
        /// `"graph_too_large"`, `"invalid_graph"`).
        reason: String,
    },
    /// A job finished.  Results stream back in submission order per
    /// connection, regardless of completion order.
    Result {
        /// The client-chosen job id.
        id: u64,
        /// How the job ended.
        outcome: WireOutcome,
    },
    /// Answer to a cancellation request.
    CancelAck {
        /// The id the client asked to cancel.
        id: u64,
        /// What the server found.
        outcome: CancelOutcome,
    },
    /// Answer to a stats request.
    Stats(StatsSnapshot),
    /// Answer to a metrics request.
    Metrics(MetricsReply),
    /// Answer to a ping.
    Pong,
    /// All outstanding jobs have drained; the server is stopping.
    ShutdownAck {
        /// Jobs that were still outstanding when the drain began.
        drained: u64,
    },
    /// The previous line could not be parsed; the connection stays open.
    Error {
        /// Description of the problem.
        message: String,
    },
}

impl Response {
    /// Encodes the response as one protocol line (no trailing newline).
    #[must_use]
    pub fn encode(&self) -> String {
        match self {
            Response::Accepted { id } => ObjectBuilder::new()
                .field("type", "accepted")
                .field("id", *id)
                .build()
                .encode(),
            Response::Rejected { id, code, reason } => ObjectBuilder::new()
                .field("type", "rejected")
                .field("id", *id)
                .field("code", *code)
                .field("reason", reason.as_str())
                .build()
                .encode(),
            Response::Result { id, outcome } => {
                let b = ObjectBuilder::new()
                    .field("type", "result")
                    .field("id", *id);
                match outcome {
                    WireOutcome::Ok(s) => {
                        let mut stats = ObjectBuilder::new()
                            .field("lambda", s.lambda)
                            .field("area", s.area)
                            .field("area_breakdown", area_breakdown_json(&s.area_breakdown))
                            .field("certificate", s.certificate.as_str())
                            .field("latency", s.latency)
                            .field("instances", s.instances)
                            .field("refinements", s.refinements)
                            .field("escalations", s.escalations)
                            .field("merges", s.merges);
                        if let Some(p) = &s.portfolio {
                            let mut portfolio = ObjectBuilder::new()
                                .field("seed", p.seed)
                                .field("variants", p.variants)
                                .field("solved", p.solved)
                                .field("failed", p.failed)
                                .field("winner", p.winner)
                                .field("winner_label", p.winner_label.as_str());
                            if let Some(v0) = p.variant0_area {
                                portfolio = portfolio.field("variant0_area", v0);
                            }
                            stats = stats.field(
                                "portfolio",
                                portfolio.field("area_saved", p.area_saved).build(),
                            );
                        }
                        b.field("status", "ok")
                            .field("stats", stats.build())
                            .build()
                            .encode()
                    }
                    WireOutcome::Failed { error } => b
                        .field("status", "failed")
                        .field("error", error.as_str())
                        .build()
                        .encode(),
                    WireOutcome::Cancelled => b.field("status", "cancelled").build().encode(),
                }
            }
            Response::CancelAck { id, outcome } => ObjectBuilder::new()
                .field("type", "cancel_ack")
                .field("id", *id)
                .field("outcome", outcome.as_str())
                .build()
                .encode(),
            Response::Stats(s) => ObjectBuilder::new()
                .field("type", "stats")
                .field("accepted", s.accepted)
                .field("completed", s.completed)
                .field("failed", s.failed)
                .field("cancelled", s.cancelled)
                .field("rejected", s.rejected)
                .field("dedup_hits", s.dedup_hits)
                .field("dedup_misses", s.dedup_misses)
                .field("queue_depth", s.queue_depth)
                .field("in_flight", s.in_flight)
                .field("workers", s.workers)
                .field("queue_capacity", s.queue_capacity)
                .build()
                .encode(),
            Response::Metrics(m) => {
                let histograms = m
                    .histograms
                    .iter()
                    .map(|h| {
                        ObjectBuilder::new()
                            .field("name", h.name.as_str())
                            .field("count", h.count)
                            .field("sum", h.sum)
                            .field("min", h.min)
                            .field("max", h.max)
                            .field("p50", h.p50)
                            .field("p95", h.p95)
                            .field("p99", h.p99)
                            .build()
                    })
                    .collect();
                ObjectBuilder::new()
                    .field("type", "metrics")
                    .field("dedup_hits", m.dedup_hits)
                    .field("dedup_misses", m.dedup_misses)
                    .field("histograms", Json::Array(histograms))
                    .build()
                    .encode()
            }
            Response::Pong => ObjectBuilder::new().field("type", "pong").build().encode(),
            Response::ShutdownAck { drained } => ObjectBuilder::new()
                .field("type", "shutdown_ack")
                .field("drained", *drained)
                .build()
                .encode(),
            Response::Error { message } => ObjectBuilder::new()
                .field("type", "error")
                .field("message", message.as_str())
                .build()
                .encode(),
        }
    }

    /// Parses one protocol line.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] when the line is not a valid response.
    pub fn parse(line: &str) -> Result<Response, WireError> {
        let v = Json::parse(line)?;
        let kind = v
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| missing("type"))?;
        let id_of = |v: &Json| {
            v.get("id")
                .and_then(Json::as_u64)
                .ok_or_else(|| missing("id"))
        };
        match kind {
            "accepted" => Ok(Response::Accepted { id: id_of(&v)? }),
            "rejected" => Ok(Response::Rejected {
                id: id_of(&v)?,
                code: v
                    .get("code")
                    .and_then(Json::as_u64)
                    .and_then(|raw| u32::try_from(raw).ok())
                    .ok_or_else(|| missing("code"))?,
                reason: v
                    .get("reason")
                    .and_then(Json::as_str)
                    .ok_or_else(|| missing("reason"))?
                    .to_string(),
            }),
            "result" => {
                let id = id_of(&v)?;
                let status = v
                    .get("status")
                    .and_then(Json::as_str)
                    .ok_or_else(|| missing("status"))?;
                let outcome = match status {
                    "ok" => {
                        let s = v.get("stats").ok_or_else(|| missing("stats"))?;
                        let u = |key: &str| {
                            s.get(key)
                                .and_then(Json::as_u64)
                                .ok_or_else(|| missing(key))
                        };
                        let c = |key: &str| {
                            u(key).and_then(|raw| u32::try_from(raw).map_err(|_| missing(key)))
                        };
                        let breakdown = s
                            .get("area_breakdown")
                            .ok_or_else(|| missing("area_breakdown"))?;
                        let component = |key: &str| {
                            breakdown
                                .get(key)
                                .and_then(Json::as_u64)
                                .ok_or_else(|| missing(key))
                        };
                        let certificate = match s
                            .get("certificate")
                            .and_then(Json::as_str)
                            .ok_or_else(|| missing("certificate"))?
                        {
                            "optimal" => BindingCertificate::Optimal,
                            "heuristic" => BindingCertificate::Heuristic,
                            other => {
                                return Err(WireError(format!("unknown certificate '{other}'")))
                            }
                        };
                        let portfolio = match s.get("portfolio") {
                            None => None,
                            Some(p) => {
                                let pu = |key: &str| {
                                    p.get(key)
                                        .and_then(Json::as_u64)
                                        .ok_or_else(|| missing(key))
                                };
                                Some(WirePortfolio {
                                    seed: pu("seed")?,
                                    variants: pu("variants")?,
                                    solved: pu("solved")?,
                                    failed: pu("failed")?,
                                    winner: pu("winner")?,
                                    winner_label: p
                                        .get("winner_label")
                                        .and_then(Json::as_str)
                                        .ok_or_else(|| missing("winner_label"))?
                                        .to_string(),
                                    variant0_area: match p.get("variant0_area") {
                                        None => None,
                                        Some(j) => Some(
                                            j.as_u64().ok_or_else(|| missing("variant0_area"))?,
                                        ),
                                    },
                                    area_saved: pu("area_saved")?,
                                })
                            }
                        };
                        WireOutcome::Ok(WireStats {
                            lambda: c("lambda")?,
                            area: u("area")?,
                            area_breakdown: AreaBreakdown {
                                fu: component("fu")?,
                                register: component("register")?,
                                mux: component("mux")?,
                            },
                            certificate,
                            latency: c("latency")?,
                            instances: u("instances")?,
                            refinements: u("refinements")?,
                            escalations: u("escalations")?,
                            merges: u("merges")?,
                            portfolio,
                        })
                    }
                    "failed" => WireOutcome::Failed {
                        error: v
                            .get("error")
                            .and_then(Json::as_str)
                            .ok_or_else(|| missing("error"))?
                            .to_string(),
                    },
                    "cancelled" => WireOutcome::Cancelled,
                    other => return Err(WireError(format!("unknown result status '{other}'"))),
                };
                Ok(Response::Result { id, outcome })
            }
            "cancel_ack" => Ok(Response::CancelAck {
                id: id_of(&v)?,
                outcome: match v
                    .get("outcome")
                    .and_then(Json::as_str)
                    .ok_or_else(|| missing("outcome"))?
                {
                    "queued" => CancelOutcome::Queued,
                    "in_flight" => CancelOutcome::InFlight,
                    "unknown" => CancelOutcome::Unknown,
                    other => return Err(WireError(format!("unknown cancel outcome '{other}'"))),
                },
            }),
            "stats" => {
                let u = |key: &str| {
                    v.get(key)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| missing(key))
                };
                Ok(Response::Stats(StatsSnapshot {
                    accepted: u("accepted")?,
                    completed: u("completed")?,
                    failed: u("failed")?,
                    cancelled: u("cancelled")?,
                    rejected: u("rejected")?,
                    dedup_hits: u("dedup_hits")?,
                    dedup_misses: u("dedup_misses")?,
                    queue_depth: u("queue_depth")?,
                    in_flight: u("in_flight")?,
                    workers: u("workers")?,
                    queue_capacity: u("queue_capacity")?,
                }))
            }
            "metrics" => {
                let u = |key: &str| {
                    v.get(key)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| missing(key))
                };
                let mut histograms = Vec::new();
                for h in v
                    .get("histograms")
                    .and_then(Json::as_array)
                    .ok_or_else(|| missing("histograms"))?
                {
                    let hu = |key: &str| {
                        h.get(key)
                            .and_then(Json::as_u64)
                            .ok_or_else(|| missing(key))
                    };
                    histograms.push(WireHistogram {
                        name: h
                            .get("name")
                            .and_then(Json::as_str)
                            .ok_or_else(|| missing("name"))?
                            .to_string(),
                        count: hu("count")?,
                        sum: hu("sum")?,
                        min: hu("min")?,
                        max: hu("max")?,
                        p50: hu("p50")?,
                        p95: hu("p95")?,
                        p99: hu("p99")?,
                    });
                }
                Ok(Response::Metrics(MetricsReply {
                    dedup_hits: u("dedup_hits")?,
                    dedup_misses: u("dedup_misses")?,
                    histograms,
                }))
            }
            "pong" => Ok(Response::Pong),
            "shutdown_ack" => Ok(Response::ShutdownAck {
                drained: v
                    .get("drained")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| missing("drained"))?,
            }),
            "error" => Ok(Response::Error {
                message: v
                    .get("message")
                    .and_then(Json::as_str)
                    .ok_or_else(|| missing("message"))?
                    .to_string(),
            }),
            other => Err(WireError(format!("unknown response type '{other}'"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_graph() -> WireGraph {
        WireGraph {
            ops: vec![
                OpShape::multiplier(8, 12),
                OpShape::adder(16),
                OpShape::subtractor(9),
            ],
            edges: vec![(0, 1), (1, 2)],
        }
    }

    #[test]
    fn submit_round_trips() {
        let request = Request::Submit(SubmitRequest {
            id: 3,
            label: Some("fir/8".into()),
            priority: -2,
            graph: sample_graph(),
            latency: LatencySpec::RelaxPercent(25),
            config: JobConfig {
                adder_bound: Some(2),
                max_iterations: Some(500),
                portfolio_seed: Some(42),
                portfolio_variants: Some(8),
                ..JobConfig::default()
            },
        });
        let line = request.encode();
        assert_eq!(Request::parse(&line).unwrap(), request);
        // Canonical: re-encoding a parsed message reproduces the line.
        assert_eq!(Request::parse(&line).unwrap().encode(), line);
    }

    #[test]
    fn optional_submit_fields_default() {
        let line = r#"{"type":"submit","id":1,"graph":{"ops":[{"op":"add","width":4}],"edges":[]},"latency":{"kind":"relax_steps","value":1}}"#;
        let Request::Submit(s) = Request::parse(line).unwrap() else {
            panic!("not a submit")
        };
        assert_eq!(s.label, None);
        assert_eq!(s.priority, 0);
        assert_eq!(s.config, JobConfig::default());
    }

    #[test]
    fn wire_graph_converts_both_ways() {
        let graph = sample_graph().to_graph().unwrap();
        assert_eq!(WireGraph::from_graph(&graph), sample_graph());
        // Structural problems surface as ModelErrors.
        let dangling = WireGraph {
            ops: vec![OpShape::adder(4)],
            edges: vec![(0, 7)],
        };
        assert!(dangling.to_graph().is_err());
        let cyclic = WireGraph {
            ops: vec![OpShape::adder(4), OpShape::adder(4)],
            edges: vec![(0, 1), (1, 0)],
        };
        assert!(cyclic.to_graph().is_err());
        let empty = WireGraph {
            ops: vec![],
            edges: vec![],
        };
        assert!(empty.to_graph().is_err());
    }

    #[test]
    fn default_job_config_matches_batch_defaults() {
        let lowered = JobConfig::default().to_alloc_config();
        let reference = AllocConfig::new(0);
        assert_eq!(lowered.instance_merging, reference.instance_merging);
        assert_eq!(lowered.max_iterations, reference.max_iterations);
        assert_eq!(lowered.resource_bounds, reference.resource_bounds);
        assert_eq!(
            mwl_core::config_fingerprint(&lowered),
            mwl_core::config_fingerprint(&reference)
        );
    }

    #[test]
    fn portfolio_pair_lowers_to_spec() {
        assert_eq!(JobConfig::default().to_portfolio_spec(), None);
        let config = JobConfig {
            portfolio_seed: Some(3),
            portfolio_variants: Some(9),
            ..JobConfig::default()
        };
        assert_eq!(config.to_portfolio_spec(), Some(PortfolioSpec::new(3, 9)));
    }

    #[test]
    fn job_config_bounds_lower_to_btreemap() {
        let config = JobConfig {
            adder_bound: Some(2),
            multiplier_bound: Some(3),
            ..JobConfig::default()
        };
        let lowered = config.to_alloc_config();
        let bounds = lowered.resource_bounds.unwrap();
        assert_eq!(bounds.get(&ResourceClass::Adder), Some(&2));
        assert_eq!(bounds.get(&ResourceClass::Multiplier), Some(&3));
    }

    #[test]
    fn responses_round_trip() {
        let responses = vec![
            Response::Accepted { id: 9 },
            Response::Rejected {
                id: 1,
                code: CODE_QUEUE_FULL,
                reason: "queue_full".into(),
            },
            Response::Result {
                id: 2,
                outcome: WireOutcome::Ok(WireStats {
                    lambda: 10,
                    area: 12345,
                    area_breakdown: AreaBreakdown {
                        fu: 12345,
                        register: 96,
                        mux: 40,
                    },
                    certificate: BindingCertificate::Optimal,
                    latency: 9,
                    instances: 4,
                    refinements: 2,
                    escalations: 1,
                    merges: 1,
                    portfolio: None,
                }),
            },
            Response::Result {
                id: 7,
                outcome: WireOutcome::Ok(WireStats {
                    lambda: 8,
                    area: 900,
                    area_breakdown: AreaBreakdown {
                        fu: 900,
                        register: 0,
                        mux: 0,
                    },
                    certificate: BindingCertificate::Optimal,
                    latency: 8,
                    instances: 3,
                    refinements: 1,
                    escalations: 0,
                    merges: 0,
                    portfolio: Some(WirePortfolio {
                        seed: 42,
                        variants: 8,
                        solved: 7,
                        failed: 1,
                        winner: 5,
                        winner_label: "no_growth+merge_shuffle".into(),
                        variant0_area: Some(940),
                        area_saved: 40,
                    }),
                }),
            },
            Response::Result {
                id: 3,
                outcome: WireOutcome::Failed {
                    error: "latency constraint 1 is below 4".into(),
                },
            },
            Response::Result {
                id: 4,
                outcome: WireOutcome::Cancelled,
            },
            Response::CancelAck {
                id: 4,
                outcome: CancelOutcome::InFlight,
            },
            Response::Stats(StatsSnapshot {
                accepted: 10,
                completed: 8,
                failed: 1,
                cancelled: 1,
                rejected: 2,
                dedup_hits: 3,
                dedup_misses: 5,
                queue_depth: 1,
                in_flight: 1,
                workers: 2,
                queue_capacity: 64,
            }),
            Response::Metrics(MetricsReply {
                dedup_hits: 4,
                dedup_misses: 6,
                histograms: vec![
                    WireHistogram {
                        name: "serve.alloc_ns".into(),
                        count: 10,
                        sum: 5_000_000,
                        min: 100_000,
                        max: 900_000,
                        p50: 480_000,
                        p95: 880_000,
                        p99: 900_000,
                    },
                    WireHistogram {
                        name: "serve.queue_wait_ns".into(),
                        count: 0,
                        sum: 0,
                        min: 0,
                        max: 0,
                        p50: 0,
                        p95: 0,
                        p99: 0,
                    },
                ],
            }),
            Response::Pong,
            Response::ShutdownAck { drained: 3 },
            Response::Error {
                message: "bad \"line\"".into(),
            },
        ];
        for response in responses {
            let line = response.encode();
            assert_eq!(Response::parse(&line).unwrap(), response, "{line}");
            assert_eq!(Response::parse(&line).unwrap().encode(), line);
        }
    }

    #[test]
    fn metrics_request_round_trips_and_digest_matches_histogram() {
        let line = Request::Metrics.encode();
        assert_eq!(line, r#"{"type":"metrics"}"#);
        assert_eq!(Request::parse(&line).unwrap(), Request::Metrics);

        // The wire digest is exactly the snapshot's integer summary.
        let h = mwl_obs::Histogram::new();
        for v in [1_000u64, 2_000, 3_000] {
            h.record(v);
        }
        let snap = h.snapshot();
        let wire = WireHistogram::from_snapshot("serve.alloc_ns", &snap);
        assert_eq!(wire.count, 3);
        assert_eq!(wire.sum, 6_000);
        assert_eq!(wire.min, 1_000);
        assert_eq!(wire.max, 3_000);
        assert_eq!(wire.p50, snap.percentile(50.0));
        assert_eq!(wire.p99, snap.percentile(99.0));
    }

    #[test]
    fn malformed_messages_are_rejected() {
        for bad in [
            "not json",
            "{}",
            r#"{"type":"warp"}"#,
            r#"{"type":"submit","id":1}"#,
            r#"{"type":"submit","id":1,"graph":{"ops":[{"op":"div","width":4}],"edges":[]},"latency":{"kind":"relax_steps","value":1}}"#,
            r#"{"type":"submit","id":1,"graph":{"ops":[],"edges":[[1]]},"latency":{"kind":"absolute","value":1}}"#,
            r#"{"type":"submit","id":1,"graph":{"ops":[],"edges":[]},"latency":{"kind":"sometime","value":1}}"#,
            r#"{"type":"cancel"}"#,
            r#"{"type":"result","id":1,"status":"great"}"#,
            // Half-specified portfolio pairs are malformed.
            r#"{"type":"submit","id":1,"graph":{"ops":[{"op":"add","width":4}],"edges":[]},"latency":{"kind":"relax_steps","value":1},"config":{"portfolio_seed":7}}"#,
            r#"{"type":"submit","id":1,"graph":{"ops":[{"op":"add","width":4}],"edges":[]},"latency":{"kind":"relax_steps","value":1},"config":{"portfolio_variants":6}}"#,
        ] {
            assert!(
                Request::parse(bad).is_err() && Response::parse(bad).is_err(),
                "accepted {bad:?}"
            );
        }
    }
}

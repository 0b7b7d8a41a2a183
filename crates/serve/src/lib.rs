//! Allocation-as-a-service: a long-lived daemon over the batch engine.
//!
//! The batch driver (`mwl_driver`) answers "solve this fixed job list";
//! this crate answers "keep solving whatever arrives" — the deployment shape
//! of a wordlength-aware synthesis backend serving many design-space
//! explorations at once.  A [`Server`] listens on TCP for newline-delimited
//! JSON requests ([`wire`]), admits jobs into a bounded priority queue with
//! explicit back-pressure (queue-full submissions are *rejected*, never
//! blocked), fans them across persistent workers running the exact
//! [`mwl_driver::solve_job`] path of the batch engine, and streams results
//! back in per-connection submission order.
//!
//! Service-level guarantees, each pinned by a test suite:
//!
//! * **Determinism** — result payloads are byte-identical at every worker
//!   count and bit-identical to a direct [`mwl_driver::run_batch`] over the
//!   same jobs (`tests/determinism.rs`).
//! * **Dedup** — completed results are memoised under a stable content hash
//!   ([`mwl_core::fingerprint`]); a cache hit returns a result
//!   bit-identical to a cold run (`tests/dedup.rs`).
//! * **Fault isolation** — malformed lines, invalid or oversized graphs,
//!   cancellations and client disconnects are answered with documented
//!   error responses and never poison the worker pool or the cache
//!   (`tests/faults.rs`).
//! * **Wire stability** — every request/response round-trips losslessly
//!   through the workspace's JSON codec (`tests/wire_roundtrip.rs`).
//!
//! No external dependencies: sockets are `std::net`, the JSON layer is
//! [`json`] (re-exported from `mwl_obs`, whose parser bounds nesting
//! depth), concurrency is scoped threads plus mutex/condvar.
//!
//! *Pipeline position:* the outermost layer of the workspace — drives
//! `mwl_driver`'s submission core; the `serve` binary wraps it for
//! deployment, and `mwlbench`'s serve probe measures it.  See
//! `docs/ARCHITECTURE.md`.
//!
//! # Quick start
//!
//! ```
//! use mwl_serve::{Client, ServerConfig, SpawnedServer, SubmitAck};
//! use mwl_serve::wire::{JobConfig, SubmitRequest, WireGraph, WireOutcome};
//! use mwl_driver::LatencySpec;
//! use mwl_model::{OpShape, SequencingGraphBuilder};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let server = SpawnedServer::start(ServerConfig::default())?;
//! let mut client = Client::connect(server.addr())?;
//!
//! let mut b = SequencingGraphBuilder::new();
//! let m = b.add_operation(OpShape::multiplier(8, 8));
//! let a = b.add_operation(OpShape::adder(16));
//! b.add_dependency(m, a)?;
//! let graph = b.build()?;
//!
//! let ack = client.submit(SubmitRequest {
//!     id: 1,
//!     label: Some("example".into()),
//!     priority: 0,
//!     graph: WireGraph::from_graph(&graph),
//!     latency: LatencySpec::RelaxSteps(2),
//!     config: JobConfig::default(),
//! })?;
//! assert_eq!(ack, SubmitAck::Accepted);
//! let (id, outcome) = client.next_result()?;
//! assert_eq!(id, 1);
//! assert!(matches!(outcome, WireOutcome::Ok(_)));
//!
//! client.shutdown()?;
//! let stats = server.join();
//! assert_eq!(stats.completed, 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod client;
pub mod dedup;
pub mod net;
pub mod server;
pub mod wire;

pub use client::{Client, ClientError, SubmitAck};
pub use dedup::{job_key, DedupCache};
/// The wire codec: the workspace's one JSON module, defined in `mwl_obs`.
pub use mwl_obs::json;
pub use server::{Server, ServerConfig, ServerControl, SpawnedServer};
pub use wire::{
    MetricsReply, Request, Response, StatsSnapshot, SubmitRequest, WireGraph, WireHistogram,
    WireOutcome,
};

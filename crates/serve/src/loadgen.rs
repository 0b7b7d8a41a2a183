//! The load generator: replays scenario mixes against a running daemon and
//! writes the `BENCH_serve.json` service-level report.
//!
//! The job mix is the batch sweep's seven scenario families
//! ([`mwl_bench::scenario_jobs`]), replayed `repeats` times — replays after
//! the first consist entirely of content-duplicate jobs, which is what
//! exercises (and measures) the server's dedup cache.  Submissions are
//! pipelined with a bounded in-flight window; queue-full rejections are
//! counted and retried, so the run also demonstrates explicit back-pressure
//! instead of blocking.
//!
//! With `exercise_faults` on, the run additionally drives one deterministic
//! queue-full rejection burst, one cancellation of a deeply queued job, one
//! malformed protocol line, and finishes with a graceful shutdown that
//! drains pipelined in-flight jobs — the checks the CI `serve_smoke` job
//! asserts on.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use mwl_bench::{scenario_jobs, BatchSweepConfig};
use mwl_driver::{area_breakdown_json, BatchJob};
use mwl_model::AreaBreakdown;
use mwl_obs::json::{rounded, Json, ObjectBuilder};
use mwl_obs::{nearest_rank, Histogram, HistogramSnapshot};

use crate::client::{Client, ClientError, SubmitAck};
use crate::wire::{
    CancelOutcome, JobConfig, StatsSnapshot, SubmitRequest, WireGraph, WireOutcome, CODE_QUEUE_FULL,
};

/// Parameters of one load-generation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadgenConfig {
    /// Address of the running daemon.
    pub addr: SocketAddr,
    /// Graphs per scenario family in each wave.
    pub graphs_per_family: usize,
    /// Number of times the scenario job set is replayed.  Waves after the
    /// first are pure dedup traffic.
    pub repeats: usize,
    /// Maximum accepted-but-unfinished jobs in flight at once.
    pub window: usize,
    /// Drive the deterministic fault checks (queue-full burst, cancellation,
    /// malformed line).
    pub exercise_faults: bool,
    /// Finish with a graceful `shutdown` request, pipelining a few jobs
    /// first so the drain is observable.
    pub shutdown: bool,
    /// Variants per job in the portfolio wave (0 disables the wave).  When
    /// non-zero, the scenario set is replayed once more with a portfolio
    /// race of this size, measuring the service-level cost and the area the
    /// winners save.
    pub portfolio_variants: usize,
}

impl LoadgenConfig {
    /// The seconds-scale CI profile.
    #[must_use]
    pub fn smoke(addr: SocketAddr) -> Self {
        LoadgenConfig {
            addr,
            graphs_per_family: 2,
            repeats: 2,
            window: 8,
            exercise_faults: true,
            shutdown: true,
            portfolio_variants: 5,
        }
    }

    /// The committed-benchmark profile: more graphs and replays for stable
    /// percentiles and a meaningful dedup hit rate.
    #[must_use]
    pub fn quick(addr: SocketAddr) -> Self {
        LoadgenConfig {
            addr,
            graphs_per_family: 8,
            repeats: 3,
            window: 8,
            exercise_faults: true,
            shutdown: true,
            portfolio_variants: 6,
        }
    }
}

/// Queue capacities above this are not driven into back-pressure: the burst
/// needed to overrun them would dominate the whole run, so the check is
/// explicitly skipped (and reported as such) instead of silently failing.
const MAX_BURST_CAPACITY: u64 = 1024;

/// Results of the fault-exercise phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultChecks {
    /// A queue-full (429) rejection was observed.
    pub queue_full_exercised: bool,
    /// The queue-full burst was skipped because the server reported a queue
    /// deeper than `MAX_BURST_CAPACITY` (1024); `queue_full_exercised` is
    /// legitimately false in that case.
    pub skipped_large_queue: bool,
    /// A cancellation was acknowledged and its result came back cancelled.
    pub cancellation_exercised: bool,
    /// A malformed line was answered with an error response (connection
    /// stayed usable).
    pub malformed_line_answered: bool,
}

/// The service-level measurement written to `BENCH_serve.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Jobs submitted across all waves (excluding the fault phase).
    pub submitted: u64,
    /// Ok results from the measured waves (plain, portfolio and shutdown
    /// drain) — the jobs counted in `submitted`.  When no job failed,
    /// `ok_waves == submitted` by construction; earlier schema versions
    /// published a single `ok` that also absorbed the fault phase, which is
    /// why the committed artifact could show `ok > submitted`.
    pub ok_waves: u64,
    /// Ok results from the fault-exercise phase (queue-full burst and
    /// cancellation fillers).  These jobs are deliberately *not* part of
    /// `submitted`: they measure fault handling, not throughput.
    pub ok_faults: u64,
    /// Results received with status failed.
    pub failed: u64,
    /// Results received with status cancelled.
    pub cancelled: u64,
    /// Total rejected submissions observed (all codes, all phases).
    pub rejections: u64,
    /// Rejections with the queue-full code.
    pub queue_full_rejections: u64,
    /// Median submit-to-result latency in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile submit-to-result latency in milliseconds.
    pub p99_ms: f64,
    /// Mean submit-to-result latency in milliseconds.
    pub mean_ms: f64,
    /// Log-bucketed digest of the same latency samples in nanoseconds
    /// (`mwl_obs::Histogram`, ≈3% resolution).  The `latency_ms` block above
    /// stays the *exact* nearest-rank answer; this block is what a live
    /// server reports through its `metrics` command, recorded here so the
    /// two views can be cross-checked.
    pub latency_hist: HistogramSnapshot,
    /// Wall-clock seconds of the measured waves.
    pub wall_seconds: f64,
    /// Completed jobs per second over the measured waves.
    pub graphs_per_sec: f64,
    /// Dedup hit rate (`hits / (hits + misses)`, 0 when dedup never ran).
    pub dedup_hit_rate: f64,
    /// Component-wise sum of the area breakdowns of all ok results.
    pub area_breakdown: AreaBreakdown,
    /// `"optimal"` when every ok result carried an optimal register-binding
    /// certificate, `"heuristic"` otherwise.
    pub certificate: String,
    /// Ok results that carried portfolio statistics (the portfolio wave).
    pub portfolio_jobs: u64,
    /// Portfolio results whose winner was not the baseline variant.
    pub portfolio_improved: u64,
    /// Total area the portfolio winners saved relative to their baselines.
    pub portfolio_area_saved: u64,
    /// Jobs reported drained by the graceful shutdown (0 when `shutdown`
    /// was off).
    pub drained: u64,
    /// Fault-phase observations.
    pub faults: FaultChecks,
    /// The server's own final statistics snapshot.
    pub server: StatsSnapshot,
}

impl LoadReport {
    /// The schema-stable `BENCH_serve.json` document.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let s = &self.server;
        let h = &self.latency_hist;
        let jobs = ObjectBuilder::new()
            .field("submitted", self.submitted)
            .field("ok_waves", self.ok_waves)
            .field("ok_faults", self.ok_faults)
            .field("failed", self.failed)
            .field("cancelled", self.cancelled);
        let latency_ms = ObjectBuilder::new()
            .field("p50", rounded(self.p50_ms, 3))
            .field("p99", rounded(self.p99_ms, 3))
            .field("mean", rounded(self.mean_ms, 3));
        let latency_histogram_ns = ObjectBuilder::new()
            .field("count", h.count)
            .field("min", h.min)
            .field("max", h.max)
            .field("p50", h.percentile(50.0))
            .field("p95", h.percentile(95.0))
            .field("p99", h.percentile(99.0));
        let throughput = ObjectBuilder::new()
            .field("wall_seconds", rounded(self.wall_seconds, 6))
            .field("graphs_per_sec", rounded(self.graphs_per_sec, 3));
        let dedup = ObjectBuilder::new()
            .field("hits", s.dedup_hits)
            .field("misses", s.dedup_misses)
            .field("hit_rate", rounded(self.dedup_hit_rate, 4));
        let portfolio = ObjectBuilder::new()
            .field("jobs", self.portfolio_jobs)
            .field("improved", self.portfolio_improved)
            .field("area_saved", self.portfolio_area_saved);
        let rejections = ObjectBuilder::new()
            .field("total", self.rejections)
            .field("queue_full", self.queue_full_rejections);
        let faults = ObjectBuilder::new()
            .field("queue_full_exercised", self.faults.queue_full_exercised)
            .field("skipped_large_queue", self.faults.skipped_large_queue)
            .field("cancellation_exercised", self.faults.cancellation_exercised)
            .field(
                "malformed_line_answered",
                self.faults.malformed_line_answered,
            );
        let shutdown = ObjectBuilder::new()
            .field("requested", self.drained > 0)
            .field("drained", self.drained);
        let server = ObjectBuilder::new()
            .field("accepted", s.accepted)
            .field("completed", s.completed)
            .field("failed", s.failed)
            .field("cancelled", s.cancelled)
            .field("rejected", s.rejected)
            .field("dedup_hits", s.dedup_hits)
            .field("dedup_misses", s.dedup_misses)
            .field("workers", s.workers)
            .field("queue_capacity", s.queue_capacity);
        ObjectBuilder::new()
            .field("schema", "mwl_serve_loadgen/v5")
            .field("jobs", jobs.build())
            .field("area_breakdown", area_breakdown_json(&self.area_breakdown))
            .field("certificate", self.certificate.as_str())
            .field("latency_ms", latency_ms.build())
            .field("latency_histogram_ns", latency_histogram_ns.build())
            .field("throughput", throughput.build())
            .field("dedup", dedup.build())
            .field("portfolio", portfolio.build())
            .field("rejections", rejections.build())
            .field("faults", faults.build())
            .field("shutdown", shutdown.build())
            .field("server", server.build())
            .build()
    }
}

/// Converts one batch job to a wire submission.
fn to_submit(id: u64, job: &BatchJob, priority: i64) -> SubmitRequest {
    SubmitRequest {
        id,
        label: Some(job.label.clone()),
        priority,
        graph: WireGraph::from_graph(&job.graph),
        latency: job.latency,
        // Scenario jobs run the allocator defaults; JobConfig::default()
        // lowers to exactly AllocConfig::new (asserted in the wire tests).
        // A portfolio request on the job rides along as the optional pair.
        config: JobConfig {
            portfolio_seed: job.portfolio.map(|spec| spec.seed),
            portfolio_variants: job.portfolio.map(|spec| spec.variants as u64),
            ..JobConfig::default()
        },
    }
}

/// State of the submit/collect pipeline.
struct Pipeline {
    pending: HashMap<u64, Instant>,
    latencies_ms: Vec<f64>,
    ok_waves: u64,
    ok_faults: u64,
    /// Set while the fault-exercise phase runs, so its ok results are
    /// tallied separately from the measured waves.
    fault_phase: bool,
    failed: u64,
    cancelled: u64,
    rejections: u64,
    queue_full: u64,
    area: AreaBreakdown,
    all_optimal: bool,
    portfolio_jobs: u64,
    portfolio_improved: u64,
    portfolio_area_saved: u64,
}

impl Pipeline {
    /// Counts one result, accumulating per-component area and the
    /// certificate conjunction for ok outcomes.
    fn tally(&mut self, outcome: &WireOutcome) {
        match outcome {
            WireOutcome::Ok(stats) => {
                if self.fault_phase {
                    self.ok_faults += 1;
                } else {
                    self.ok_waves += 1;
                }
                self.area.fu += stats.area_breakdown.fu;
                self.area.register += stats.area_breakdown.register;
                self.area.mux += stats.area_breakdown.mux;
                self.all_optimal &= stats.certificate == mwl_core::BindingCertificate::Optimal;
                if let Some(p) = &stats.portfolio {
                    self.portfolio_jobs += 1;
                    self.portfolio_improved += u64::from(p.winner != 0);
                    self.portfolio_area_saved += p.area_saved;
                }
            }
            WireOutcome::Failed { .. } => self.failed += 1,
            WireOutcome::Cancelled => self.cancelled += 1,
        }
    }

    fn record(&mut self, id: u64, outcome: &WireOutcome) {
        if let Some(sent) = self.pending.remove(&id) {
            self.latencies_ms
                .push(sent.elapsed().as_secs_f64() * 1000.0);
        }
        self.tally(outcome);
    }

    /// Submits with bounded retries on queue-full back-pressure.
    fn submit_with_retry(
        &mut self,
        client: &mut Client,
        submit: SubmitRequest,
    ) -> Result<bool, ClientError> {
        for _ in 0..10_000 {
            match client.submit(submit.clone())? {
                SubmitAck::Accepted => {
                    self.pending.insert(submit.id, Instant::now());
                    return Ok(true);
                }
                SubmitAck::Rejected { code, .. } => {
                    self.rejections += 1;
                    if code == CODE_QUEUE_FULL {
                        self.queue_full += 1;
                        // Explicit back-pressure: drain one result (freeing
                        // a slot) instead of spinning.
                        if self.pending.is_empty() {
                            std::thread::sleep(Duration::from_millis(2));
                        } else {
                            let (id, outcome) = client.next_result()?;
                            self.record(id, &outcome);
                        }
                    } else {
                        return Ok(false); // non-retryable rejection
                    }
                }
            }
        }
        Ok(false)
    }
}

/// Runs the load generation and returns the report (without writing files).
///
/// # Errors
///
/// Propagates client/transport failures; individual job failures are counted
/// in the report instead.
pub fn run_loadgen(config: &LoadgenConfig) -> Result<LoadReport, ClientError> {
    let mut client = Client::connect(config.addr)?;
    client.ping()?;

    let sweep = BatchSweepConfig::smoke().with_graphs(config.graphs_per_family.max(1));
    let jobs = scenario_jobs(&sweep);
    let mut pipeline = Pipeline {
        pending: HashMap::new(),
        latencies_ms: Vec::new(),
        ok_waves: 0,
        ok_faults: 0,
        fault_phase: false,
        failed: 0,
        cancelled: 0,
        rejections: 0,
        queue_full: 0,
        area: AreaBreakdown::default(),
        all_optimal: true,
        portfolio_jobs: 0,
        portfolio_improved: 0,
        portfolio_area_saved: 0,
    };

    let mut next_id: u64 = 0;
    let mut submitted: u64 = 0;
    let started = Instant::now();
    for _wave in 0..config.repeats.max(1) {
        for job in &jobs {
            let id = next_id;
            next_id += 1;
            if pipeline.submit_with_retry(&mut client, to_submit(id, job, 0))? {
                submitted += 1;
            }
            while pipeline.pending.len() >= config.window.max(1) {
                let (id, outcome) = client.next_result()?;
                pipeline.record(id, &outcome);
            }
        }
    }
    if config.portfolio_variants > 0 {
        // The portfolio wave: the same scenario set, each job racing a
        // fixed-seed portfolio.  Distinct dedup keys from the plain waves,
        // so every job solves cold on its first appearance.
        for job in &jobs {
            let raced = job.clone().with_portfolio(mwl_core::PortfolioSpec::new(
                2001,
                config.portfolio_variants,
            ));
            let id = next_id;
            next_id += 1;
            if pipeline.submit_with_retry(&mut client, to_submit(id, &raced, 0))? {
                submitted += 1;
            }
            while pipeline.pending.len() >= config.window.max(1) {
                let (id, outcome) = client.next_result()?;
                pipeline.record(id, &outcome);
            }
        }
    }
    while !pipeline.pending.is_empty() {
        let (id, outcome) = client.next_result()?;
        pipeline.record(id, &outcome);
    }
    let wall_seconds = started.elapsed().as_secs_f64().max(1e-9);

    let mut faults = FaultChecks::default();
    if config.exercise_faults {
        pipeline.fault_phase = true;
        faults = exercise_faults(&mut client, &mut pipeline, &mut next_id)?;
        pipeline.fault_phase = false;
    }

    let mut drained = 0;
    let server = if config.shutdown {
        // Pipeline a few more jobs and shut down while they are
        // outstanding: the drain must complete them all before the ack.
        // Fresh-seed jobs solve cold (dedup cannot shortcut them), so they
        // are still in flight when the shutdown line lands.
        let drain_jobs = scenario_jobs(&BatchSweepConfig {
            graphs_per_family: 1,
            sizes: vec![28], // slow enough to still be in flight at drain
            seed: 770_000,   // distinct from the waves and the fault bursts
            worker_counts: vec![1],
        });
        let stats_before = client.stats()?;
        for job in drain_jobs.iter().take(4) {
            let id = next_id;
            next_id += 1;
            if pipeline.submit_with_retry(&mut client, to_submit(id, job, 0))? {
                submitted += 1;
            }
        }
        drained = client.shutdown()?;
        // Every accepted job's result was written before the shutdown ack
        // (the drain completes outstanding work first), so these pops never
        // block.
        while !pipeline.pending.is_empty() {
            let (id, outcome) = client.next_result()?;
            pipeline.record(id, &outcome);
        }
        stats_before
    } else {
        client.stats()?
    };

    let mut sorted = pipeline.latencies_ms.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let mean_ms = if sorted.is_empty() {
        0.0
    } else {
        sorted.iter().sum::<f64>() / sorted.len() as f64
    };
    // The same samples, digested the way a live server reports them (the
    // exact nearest-rank numbers above stay the reference).
    let hist = Histogram::new();
    for &ms in &sorted {
        hist.record((ms * 1e6) as u64);
    }
    let denominator = server.dedup_hits + server.dedup_misses;
    Ok(LoadReport {
        submitted,
        ok_waves: pipeline.ok_waves,
        ok_faults: pipeline.ok_faults,
        failed: pipeline.failed,
        cancelled: pipeline.cancelled,
        rejections: pipeline.rejections,
        queue_full_rejections: pipeline.queue_full,
        p50_ms: nearest_rank(&sorted, 50.0),
        p99_ms: nearest_rank(&sorted, 99.0),
        mean_ms,
        latency_hist: hist.snapshot(),
        wall_seconds,
        graphs_per_sec: sorted.len() as f64 / wall_seconds,
        dedup_hit_rate: if denominator == 0 {
            0.0
        } else {
            server.dedup_hits as f64 / denominator as f64
        },
        area_breakdown: pipeline.area,
        certificate: if pipeline.all_optimal {
            "optimal".to_string()
        } else {
            "heuristic".to_string()
        },
        portfolio_jobs: pipeline.portfolio_jobs,
        portfolio_improved: pipeline.portfolio_improved,
        portfolio_area_saved: pipeline.portfolio_area_saved,
        drained,
        faults,
        server,
    })
}

/// Drives the deterministic fault checks: a pipelined burst that overruns
/// the queue (back-pressure), a cancellation of a deeply queued job, and a
/// malformed line.
fn exercise_faults(
    client: &mut Client,
    pipeline: &mut Pipeline,
    next_id: &mut u64,
) -> Result<FaultChecks, ClientError> {
    let mut checks = FaultChecks::default();

    // Burst: distinct slow graphs sent without reading acks, so the
    // bounded queue must refuse some of them.  The burst is sized from the
    // server's *reported* queue capacity — a fixed count would silently
    // stop exercising back-pressure the moment someone deepened the queue.
    // Capacities beyond MAX_BURST_CAPACITY are not worth flooding; the
    // skip is reported instead of a silent false.
    let capacity = client.stats()?.queue_capacity;
    if capacity > MAX_BURST_CAPACITY {
        checks.skipped_large_queue = true;
    } else {
        // scenario_jobs yields families × graphs_per_family × sizes jobs
        // (7 × g × 2 here); overshoot the capacity by a margin that covers
        // the jobs the workers drain while the burst is being written.
        let margin = 48;
        let per_family = (capacity + margin).div_ceil(14).max(1) as usize;
        let burst_jobs = scenario_jobs(&BatchSweepConfig {
            graphs_per_family: per_family,
            sizes: vec![24, 28],
            seed: 990_000, // distinct from the measured waves: no dedup hits
            worker_counts: vec![1],
        });
        let first_id = *next_id;
        for job in &burst_jobs {
            let id = *next_id;
            *next_id += 1;
            client.send(&crate::wire::Request::Submit(to_submit(id, job, 0)))?;
        }
        let mut accepted_ids = Vec::new();
        for _ in first_id..*next_id {
            match client.read_control()? {
                crate::wire::Response::Accepted { id } => accepted_ids.push(id),
                crate::wire::Response::Rejected { code, .. } => {
                    pipeline.rejections += 1;
                    if code == CODE_QUEUE_FULL {
                        pipeline.queue_full += 1;
                        checks.queue_full_exercised = true;
                    }
                }
                other => return Err(ClientError::Unexpected(Box::new(other))),
            }
        }

        for &id in &accepted_ids {
            // Results stream in submission order; collect them all.
            let (got, outcome) = client.next_result()?;
            debug_assert_eq!(got, id);
            pipeline.tally(&outcome);
        }
    }

    // Cancellation: occupy the workers and the queue with slow filler
    // jobs, then submit a lowest-priority victim — the heap pops it only
    // once everything else is running — and cancel it the moment its ack
    // arrives.  Retried with fresh (cold, so never dedup-shortcut) graphs
    // in the unlikely event the whole backlog drained within the cancel's
    // round trip.
    for attempt in 0..5u64 {
        let jobs = scenario_jobs(&BatchSweepConfig {
            graphs_per_family: 1,
            sizes: vec![28],
            seed: 880_000 + 31 * attempt,
            worker_counts: vec![1],
        });
        let (victim_job, fillers) = jobs.split_last().expect("seven families");
        let mut ids = Vec::new();
        for job in fillers.iter().take(6) {
            let id = *next_id;
            *next_id += 1;
            client.send(&crate::wire::Request::Submit(to_submit(id, job, 0)))?;
            ids.push(id);
        }
        let victim = *next_id;
        *next_id += 1;
        client.send(&crate::wire::Request::Submit(to_submit(
            victim,
            victim_job,
            i64::MIN,
        )))?;
        ids.push(victim);

        let mut accepted = Vec::new();
        for &id in &ids {
            match client.read_control()? {
                crate::wire::Response::Accepted { id: got } => {
                    debug_assert_eq!(got, id);
                    accepted.push(got);
                }
                crate::wire::Response::Rejected { code, .. } => {
                    pipeline.rejections += 1;
                    if code == CODE_QUEUE_FULL {
                        pipeline.queue_full += 1;
                    }
                }
                other => return Err(ClientError::Unexpected(Box::new(other))),
            }
        }
        let cancelled_now =
            accepted.contains(&victim) && client.cancel(victim)? != CancelOutcome::Unknown;
        for &id in &accepted {
            let (got, outcome) = client.next_result()?;
            debug_assert_eq!(got, id);
            pipeline.tally(&outcome);
        }
        if cancelled_now {
            checks.cancellation_exercised = true;
            break;
        }
    }

    // Malformed line: answered with an error, connection stays usable.
    client.send_raw("{this is not json")?;
    if let crate::wire::Response::Error { .. } = client.read_control()? {
        checks.malformed_line_answered = true;
    }
    client.ping()?;
    Ok(checks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        // The report now leans on the shared helper; these are the exact
        // semantics the pre-mwl_obs hand-rolled percentile had.
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&sorted, 50.0), 50.0);
        assert_eq!(nearest_rank(&sorted, 99.0), 99.0);
        assert_eq!(nearest_rank(&sorted, 100.0), 100.0);
        assert_eq!(nearest_rank(&[42.0], 50.0), 42.0);
        assert_eq!(nearest_rank(&[], 99.0), 0.0);
    }

    #[test]
    fn report_json_is_schema_stable() {
        let report = LoadReport {
            submitted: 10,
            ok_waves: 10,
            ok_faults: 6,
            failed: 0,
            cancelled: 1,
            rejections: 3,
            queue_full_rejections: 3,
            p50_ms: 1.5,
            p99_ms: 9.25,
            mean_ms: 2.0,
            latency_hist: {
                let h = Histogram::new();
                h.record(1_500_000);
                h.record(9_250_000);
                h.snapshot()
            },
            wall_seconds: 0.5,
            graphs_per_sec: 20.0,
            dedup_hit_rate: 0.5,
            area_breakdown: AreaBreakdown {
                fu: 4200,
                register: 96,
                mux: 30,
            },
            certificate: "optimal".to_string(),
            portfolio_jobs: 14,
            portfolio_improved: 3,
            portfolio_area_saved: 120,
            drained: 4,
            faults: FaultChecks {
                queue_full_exercised: true,
                skipped_large_queue: false,
                cancellation_exercised: true,
                malformed_line_answered: true,
            },
            server: StatsSnapshot {
                accepted: 10,
                completed: 10,
                failed: 0,
                cancelled: 1,
                rejected: 3,
                dedup_hits: 5,
                dedup_misses: 5,
                queue_depth: 0,
                in_flight: 0,
                workers: 2,
                queue_capacity: 64,
            },
        };
        let json = report.to_json().encode_pretty();
        for key in [
            "\"schema\": \"mwl_serve_loadgen/v5\"",
            "\"jobs\": {\"submitted\": 10, \"ok_waves\": 10, \"ok_faults\": 6, \"failed\": 0, \"cancelled\": 1}",
            "\"latency_histogram_ns\": {\"count\": 2, \"min\": 1500000, \"max\": 9250000,",
            "\"portfolio\": {\"jobs\": 14, \"improved\": 3, \"area_saved\": 120}",
            "\"area_breakdown\": {\"fu\": 4200, \"register\": 96, \"mux\": 30}",
            "\"certificate\": \"optimal\"",
            "\"p50\"",
            "\"p99\"",
            "\"graphs_per_sec\"",
            "\"hit_rate\"",
            "\"queue_full\"",
            "\"skipped_large_queue\": false",
            "\"cancellation_exercised\"",
            "\"drained\"",
            "\"queue_capacity\": 64",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // The document parses back to the value it was printed from.
        assert_eq!(Json::parse(&json).unwrap(), report.to_json());
    }
}

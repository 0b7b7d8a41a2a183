//! The traced run: a per-layer breakdown of one workload's jobs.
//!
//! Each allocator layer is timed from outside, by calls into the crates'
//! public functions on the workload's own jobs, and the counters and
//! recorders those crates already expose are read afterwards.  The daemon
//! layers are probed with the serve mix ([`MixGen`]): an open loop at
//! [`SERVE_RATE`] over one connection, the daemon's `metrics`, then the
//! sustained-rate ladder.  Every call is also recorded as a span; the spans
//! stay in memory and are written at exit as one Chrome trace
//! (`mwl_obs::TraceSink`).  End-to-end metrics never come from this run.
//!
//! Trace lanes: `tid 1` is the layer sweep (a `job` span per job around
//! `wcg.build`, `sched.list`, `core.bind_select`, `core.allocate` — with the
//! allocator's own `schedule`/`bind`/`refine`/`merge` spans nested inside —
//! `core.merge` and `core.storage`), then `portfolio.race` and `rtl.check`;
//! `tid 2` holds one `serve.request` span per probe request, send to
//! result.  The traced `run_batch` calls that measure tracing overhead keep
//! no events.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use mwl_core::{
    bind_select, merge_instances, run_portfolio_with_scratch, AllocOutcome, AllocScratch,
    DpAllocator, PortfolioOutcome, PortfolioSpec,
};
use mwl_driver::{
    batch_cache, run_batch, run_batch_traced, solve_job, BatchJob, BatchOptions, BatchReport,
};
use mwl_model::{CostModel, ResourceClass, SonicCostModel};
use mwl_obs::{ArgValue, ObsMode, Stage, StageNanos, TraceEvent, TraceSink};
use mwl_sched::{ListScheduler, PerClassBound};
use mwl_serve::{MetricsReply, Request, Response};
use mwl_wcg::WordlengthCompatibilityGraph;

use crate::batch::cache_warm_times;
use crate::check::{compare_outcome, resolved_config, Checker};
use crate::mix::{check_phase, ladder, run_plan};
use crate::report::Outcome;
use crate::serve::start_daemon;
use crate::stats::{lower_decile, mean, median, percentile, ratio, timed};
use crate::workload::{
    large_pool, paper_pool, MixGen, Scale, SplitMix, Workload, PORTFOLIO_VARIANTS, SERVE_RATE,
};
use crate::Args;

/// The jobs one traced run works on.
struct Inputs {
    /// The layer set, as the workload's requests (design batches or single
    /// graphs) of plain jobs.
    batches: Vec<Vec<BatchJob>>,
    /// Jobs raced as portfolios.
    portfolio: Vec<BatchJob>,
    /// Seconds of the workload's cost-cache warm (its set-up).
    warm_s: f64,
}

fn batch_inputs(pool: Vec<Vec<BatchJob>>, layer_batches: usize, races: usize, seed: u64) -> Inputs {
    let all: Vec<BatchJob> = pool.iter().flatten().cloned().collect();
    let warm_s = lower_decile(&cache_warm_times(&all));
    let batches: Vec<Vec<BatchJob>> = pool.into_iter().take(layer_batches).collect();
    let mut seeds = SplitMix::new(seed, 7);
    let portfolio = batches
        .iter()
        .flatten()
        .take(races)
        .map(|job| {
            job.clone()
                .with_portfolio(PortfolioSpec::new(seeds.next_u64(), PORTFOLIO_VARIANTS))
        })
        .collect();
    Inputs {
        batches,
        portfolio,
        warm_s,
    }
}

/// Span recording into an in-memory event list.
struct Spans {
    epoch: Instant,
    tid: u64,
    events: Vec<TraceEvent>,
}

impl Spans {
    fn event(
        &mut self,
        name: &'static str,
        started: Instant,
        seconds: f64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        self.events.push(TraceEvent {
            name,
            cat: "bench",
            ts_ns: nanos(started.saturating_duration_since(self.epoch).as_secs_f64()),
            dur_ns: nanos(seconds),
            tid: self.tid,
            args,
        });
    }

    /// Runs `f` inside a span; returns its value and seconds.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let started = Instant::now();
        let value = f();
        let seconds = started.elapsed().as_secs_f64();
        self.event(name, started, seconds, Vec::new());
        (value, seconds)
    }
}

fn nanos(seconds: f64) -> u64 {
    (seconds * 1e9).round() as u64
}

/// Accumulated per-layer measurements of the layer sweep.
#[derive(Default)]
struct Sweep {
    wcg_s: Vec<f64>,
    edges: Vec<f64>,
    sched_s: Vec<f64>,
    bind_s: Vec<f64>,
    alloc_s: Vec<f64>,
    merge_s: Vec<f64>,
    storage_s: Vec<f64>,
    stages: StageNanos,
    refinements: usize,
    escalations: usize,
    merges: usize,
    /// The allocator outcome of each layer-set job (`None`: failed).
    outcomes: Vec<Option<AllocOutcome>>,
}

/// One job through every allocator layer, each call in its own span.
fn sweep_job(
    job: &BatchJob,
    index: usize,
    cache: &dyn CostModel,
    traced: &mut AllocScratch,
    plain: &mut AllocScratch,
    spans: &mut Spans,
    sweep: &mut Sweep,
) -> Result<(), String> {
    let config = resolved_config(job, cache);
    let graph = &job.graph;
    let started = Instant::now();

    let (mut wcg, t) = spans.span("wcg.build", || {
        WordlengthCompatibilityGraph::new(graph, cache)
    });
    sweep.wcg_s.push(t);
    sweep.edges.push(wcg.num_edges() as f64);

    let upper = wcg.upper_bound_latencies();
    let classes: Vec<ResourceClass> = graph
        .operations()
        .iter()
        .map(|op| ResourceClass::for_kind(op.kind()))
        .collect();
    let one_each: BTreeMap<ResourceClass, usize> = classes.iter().map(|&c| (c, 1)).collect();
    let (schedule, t) = spans.span("sched.list", || {
        ListScheduler::new(config.priority).schedule(
            graph,
            &upper,
            PerClassBound::new(classes, one_each),
        )
    });
    sweep.sched_s.push(t);
    let schedule = schedule.map_err(|e| format!("{}: list schedule: {e}", job.label))?;

    let (bound, t) = spans.span("core.bind_select", || {
        wcg.attach_schedule(&schedule, &upper);
        bind_select(&wcg, config.bind_options)
    });
    sweep.bind_s.push(t);
    bound.map_err(|e| format!("{}: bind_select: {e}", job.label))?;

    let lambda = config.latency_constraint;
    let (outcome, t) = spans.span("core.allocate", || {
        DpAllocator::new(cache, config.clone()).allocate_with_scratch(graph, traced)
    });
    sweep.alloc_s.push(t);
    sweep.stages.merge(&traced.obs.take_stages());
    spans.events.extend(traced.obs.drain_events());
    let outcome = outcome.map_err(|e| format!("{}: allocate: {e}", job.label))?;
    sweep.refinements += outcome.refinements;
    sweep.escalations += outcome.bound_escalations;

    let unmerged = DpAllocator::new(cache, config.clone().with_instance_merging(false))
        .allocate_with_scratch(graph, plain)
        .map_err(|e| format!("{}: allocate without merging: {e}", job.label))?;
    let ((_, merge_stats), t) = spans.span("core.merge", || {
        merge_instances(&unmerged.datapath, graph, cache, lambda)
    });
    sweep.merge_s.push(t);
    sweep.merges += merge_stats.merges;

    let (binding, t) = spans.span("core.storage", || {
        outcome.datapath.register_binding(graph, cache)
    });
    sweep.storage_s.push(t);
    black_box(binding);

    spans.event(
        "job",
        started,
        started.elapsed().as_secs_f64(),
        vec![
            ("index", ArgValue::Int(index as i64)),
            ("label", ArgValue::Str(job.label.clone())),
        ],
    );
    sweep.outcomes[index] = Some(outcome);
    Ok(())
}

/// Median seconds of `rounds` interleaved timings of two arms.
fn interleaved(rounds: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    let mut ta = Vec::new();
    let mut tb = Vec::new();
    for _ in 0..rounds {
        ta.push(timed(&mut a).1);
        tb.push(timed(&mut b).1);
    }
    (median(&ta), median(&tb))
}

fn histogram(metrics: &MetricsReply, name: &str) -> (f64, f64, f64) {
    metrics
        .histograms
        .iter()
        .find(|h| h.name == name)
        .map_or((0.0, 0.0, 0.0), |h| {
            (h.p50 as f64 / 1e3, h.p99 as f64 / 1e3, h.sum as f64 / 1e3)
        })
}

/// The traced run of `args.workload`.
///
/// # Errors
///
/// Daemon or transport failures, or an unwritable trace file.
pub fn run(args: &Args, scale: Scale) -> Result<Outcome, String> {
    let workload = args.workload;
    let inputs = match workload {
        Workload::PaperMix => batch_inputs(
            paper_pool(args.seed, scale.paper_batches()),
            scale.layer_batches(workload),
            scale.portfolio_races(workload),
            args.seed,
        ),
        Workload::LargeGraphs => batch_inputs(
            large_pool(args.seed, scale.large_graphs()),
            scale.layer_batches(workload),
            scale.portfolio_races(workload),
            args.seed,
        ),
    };
    let jobs: Vec<BatchJob> = inputs.batches.iter().flatten().cloned().collect();
    let cost = SonicCostModel::default();
    let cache = batch_cache(&cost, &jobs);
    let rounds = if scale.tiny { 1 } else { 5 };
    let options = BatchOptions::sequential();
    let mut outcome = Outcome::default();

    // Driver overhead: run_batch per design batch against the same
    // solve_job calls in a plain loop over a pre-warmed cache.
    let mut scratch = AllocScratch::new();
    let mut driver_reports: Vec<BatchReport> = Vec::new();
    let (loop_s, driver_s) = interleaved(
        rounds,
        || {
            for (i, job) in jobs.iter().enumerate() {
                black_box(solve_job(i, job, &cache, 1, &mut scratch));
            }
        },
        || {
            let reports: Vec<BatchReport> = inputs
                .batches
                .iter()
                .map(|b| run_batch(b, &cost, &options))
                .collect();
            if driver_reports.is_empty() {
                driver_reports = reports;
            }
        },
    );
    let lookups = (cache.hits() + cache.misses()) as f64;
    let hit_ratio = ratio(cache.hits() as f64, lookups);

    // Tracing overhead: the same run_batch calls with the allocator's
    // trace recorder on, events collected into a sink that is dropped.
    let traced_options = options.clone().with_obs(ObsMode::Trace);
    let (off_s, on_s) = interleaved(
        rounds,
        || {
            for batch in &inputs.batches {
                black_box(run_batch(batch, &cost, &options));
            }
        },
        || {
            let sink = TraceSink::new();
            for batch in &inputs.batches {
                black_box(run_batch_traced(batch, &cost, &traced_options, Some(&sink)));
            }
        },
    );

    // The layer sweep.
    let sink = TraceSink::new();
    let epoch = Instant::now();
    let mut spans = Spans {
        epoch,
        tid: 1,
        events: Vec::new(),
    };
    let mut traced = AllocScratch::new();
    traced.obs.set_trace_context(1, epoch);
    traced.obs.set_mode(ObsMode::Trace);
    let mut plain = AllocScratch::new();
    let mut sweep = Sweep {
        outcomes: vec![None; jobs.len()],
        ..Sweep::default()
    };
    for (i, job) in jobs.iter().enumerate() {
        if let Err(e) = sweep_job(
            job,
            i,
            &cache,
            &mut traced,
            &mut plain,
            &mut spans,
            &mut sweep,
        ) {
            outcome.fail(e);
        }
    }

    // Portfolio races.
    let mut race_s = Vec::new();
    let mut races: Vec<Option<PortfolioOutcome>> = Vec::new();
    for job in &inputs.portfolio {
        let config = resolved_config(job, &cache);
        let spec = job.portfolio.expect("race jobs carry a portfolio spec");
        let (race, t) = spans.span("portfolio.race", || {
            run_portfolio_with_scratch(&cache, &job.graph, &config, spec, 1, &mut plain)
        });
        race_s.push(t);
        if let Err(e) = &race {
            outcome.fail(format!("{}: portfolio: {e}", job.label));
        }
        races.push(race.ok());
    }
    let improved = races.iter().flatten().filter(|r| r.winner() != 0).count();

    // The daemon probe: the serve mix at its fixed rate on one connection,
    // the daemon's own metrics, then the sustained-rate ladder.
    let mut mix = MixGen::new(args.seed);
    let plan = mix.take(scale.probe_requests());
    let (server, mut conn) = start_daemon()?;
    let daemon = run_plan(&mut conn, &mix, &plan, SERVE_RATE).and_then(|probe| {
        let telemetry = match (conn.call(&Request::Metrics)?, conn.call(&Request::Stats)?) {
            (Response::Metrics(m), Response::Stats(s)) => (m, s),
            other => return Err(format!("unexpected telemetry answers {other:?}")),
        };
        let ladder = ladder(&mut conn, &mut mix, scale)?;
        Ok((probe, telemetry, ladder))
    });
    drop(conn);
    let _ = server.stop_and_join();
    let (probe, (metrics, server_stats), (sustained, ladder_note)) = daemon?;
    let kinds: Vec<&'static str> = plan.iter().map(|r| r.kind.name()).collect();
    sink.append(probe.spans(epoch, 2, &kinds));

    // Output checks (outside every timed region above).
    let mut checker = Checker::default();
    let requests: Vec<usize> = plan.iter().map(|r| r.job).collect();
    for failure in check_phase(&mix.jobs, &requests, &probe, args.seed, &mut checker) {
        outcome.fail(failure);
    }
    let reports = driver_reports.iter().flat_map(|r| &r.outcomes);
    for (i, (job, reported)) in jobs.iter().zip(reports).enumerate() {
        let checked = checker.expected(i, job).and_then(|want| {
            if reported.result.as_ref() != Ok(&want) {
                return Err(format!(
                    "{}: run_batch reported {:?}",
                    job.label, reported.result
                ));
            }
            if let Some(sweep_outcome) = &sweep.outcomes[i] {
                compare_outcome(&job.label, &want, sweep_outcome)?;
            }
            checker.check_job(i, job, &want, true)
        });
        if let Err(e) = checked {
            outcome.fail(e);
        }
    }
    for (job, race) in inputs.portfolio.iter().zip(&races) {
        let Some(race) = race else { continue };
        let checked = checker
            .expected(0, job)
            .and_then(|want| compare_outcome(&job.label, &want, &race.best).map(|()| want))
            .and_then(|want| checker.check_job(0, job, &want, false));
        if let Err(e) = checked {
            outcome.fail(e);
        }
    }
    for &(started, seconds) in &checker.rtl_spans {
        spans.event("rtl.check", started, seconds, Vec::new());
    }
    sink.append(std::mem::take(&mut spans.events));
    outcome.notes.push(checker.reference_note());
    outcome.attempted = (jobs.len() + inputs.portfolio.len() + plan.len()) as u64;

    // Metrics.
    let alloc_total_s: f64 = sweep.alloc_s.iter().sum();
    let stage_ns: u64 = [Stage::Schedule, Stage::Bind, Stage::Refine, Stage::Merge]
        .iter()
        .map(|&s| sweep.stages.get(s))
        .sum();
    let unattributed = 1.0 - ratio(stage_ns as f64 / 1e9, alloc_total_s);
    let storage_total_s: f64 = sweep.storage_s.iter().sum();
    let queue = histogram(&metrics, "serve.queue_wait_ns");
    let dedup = histogram(&metrics, "serve.dedup_lookup_ns");
    let alloc = histogram(&metrics, "serve.alloc_ns");
    let serialize = histogram(&metrics, "serve.serialize_ns");
    let answered: Vec<f64> = probe.from_send_ms.iter().flatten().copied().collect();
    let server_us_per_request = ratio(
        queue.2 + dedup.2 + alloc.2 + serialize.2,
        answered.len() as f64,
    );
    let dedup_lookups = (metrics.dedup_hits + metrics.dedup_misses) as f64;
    let us = |v: &[f64]| mean(v) * 1e6;

    outcome.push("cost_cache.warm_us", inputs.warm_s * 1e6, "us");
    outcome.push("cost_cache.hit_ratio", hit_ratio, "ratio");
    outcome.push("wcg.build_us", us(&sweep.wcg_s), "us");
    outcome.push("wcg.edges", mean(&sweep.edges), "count");
    outcome.push("sched.list_us", us(&sweep.sched_s), "us");
    outcome.push(
        "core.allocate_us.p50",
        percentile(&sweep.alloc_s, 50.0) * 1e6,
        "us",
    );
    outcome.push("core.allocate_us.total", alloc_total_s * 1e6, "us");
    outcome.push("core.bind_select_us", us(&sweep.bind_s), "us");
    outcome.push("core.refinements", sweep.refinements as f64, "count");
    outcome.push("core.escalations", sweep.escalations as f64, "count");
    outcome.push("core.merge_us", us(&sweep.merge_s), "us");
    outcome.push("core.merges", sweep.merges as f64, "count");
    outcome.push("core.storage_us", us(&sweep.storage_s), "us");
    for stage in [Stage::Schedule, Stage::Bind, Stage::Refine, Stage::Merge] {
        let name = format!("core.stage.{}_ns", stage.name());
        outcome.push(&name, sweep.stages.get(stage) as f64, "ns");
    }
    outcome.push("core.unattributed_ratio", unattributed, "ratio");
    outcome.push("portfolio.race_us", us(&race_s), "us");
    outcome.push(
        "portfolio.improved_ratio",
        ratio(improved as f64, races.len() as f64),
        "ratio",
    );
    outcome.push(
        "driver.overhead_ratio",
        1.0 - ratio(loop_s, driver_s),
        "ratio",
    );
    for (name, h) in [
        ("serve.queue_wait_us", queue),
        ("serve.dedup_lookup_us", dedup),
        ("serve.alloc_us", alloc),
        ("serve.serialize_us", serialize),
    ] {
        outcome.push(&format!("{name}.p50"), h.0, "us");
        outcome.push(&format!("{name}.p99"), h.1, "us");
    }
    outcome.push(
        "serve.network_parse_us",
        mean(&answered) * 1e3 - server_us_per_request,
        "us",
    );
    outcome.push("serve.latency_p50_ms", probe.latency_percentile(50.0), "ms");
    outcome.push("serve.latency_p99_ms", probe.latency_percentile(99.0), "ms");
    outcome.push("serve.sustained_rate_per_s", sustained, "1/s");
    outcome.push(
        "serve.dedup_hit_ratio",
        ratio(metrics.dedup_hits as f64, dedup_lookups),
        "ratio",
    );
    outcome.push("serve.rejected", server_stats.rejected as f64, "count");
    outcome.push("serve.backlog_max", probe.backlog_max as f64, "count");
    outcome.push(
        "loadgen.late_ms_p99",
        percentile(&probe.late_ms, 99.0),
        "ms",
    );
    outcome.push("rtl.check_us", mean(&checker.rtl_us), "us");
    outcome.push(
        "obs.trace_overhead_ratio",
        ratio(on_s, off_s) - 1.0,
        "ratio",
    );

    // Reconciliation: where one pass of run_batch over the layer set goes.
    let rows = [
        ("driver (run_batch minus solve_job loop)", driver_s - loop_s),
        (
            "core.stage.schedule",
            sweep.stages.get(Stage::Schedule) as f64 / 1e9,
        ),
        (
            "core.stage.bind",
            sweep.stages.get(Stage::Bind) as f64 / 1e9,
        ),
        (
            "core.stage.refine",
            sweep.stages.get(Stage::Refine) as f64 / 1e9,
        ),
        (
            "core.stage.merge",
            sweep.stages.get(Stage::Merge) as f64 / 1e9,
        ),
        (
            "core unattributed (allocate minus stages)",
            alloc_total_s - stage_ns as f64 / 1e9,
        ),
        ("core.storage", storage_total_s),
        // The rest of the pass: solve_job outside allocate and storage.  The
        // rows come from separate passes over a machine whose speed drifts,
        // so this residual can even go negative.
        (
            "residual (solve_job outside the rows above)",
            loop_s - alloc_total_s - storage_total_s,
        ),
    ];
    outcome.notes.push(format!(
        "reconciliation of one run_batch pass over {} jobs ({:.1} us, median of {rounds}; \
         rows from separate passes):",
        jobs.len(),
        driver_s * 1e6
    ));
    for (name, seconds) in rows {
        outcome.notes.push(format!(
            "  {name:<48} {:>12.1} us {:>6.1}%",
            seconds * 1e6,
            100.0 * ratio(seconds, driver_s)
        ));
    }
    outcome.notes.push(format!(
        "daemon probe: {} serve-mix requests at {SERVE_RATE}/s on one connection, latency \
         from send p50 {:.3} ms p99 {:.3} ms",
        plan.len(),
        percentile(&answered, 50.0),
        percentile(&answered, 99.0)
    ));
    outcome.notes.push(ladder_note);

    let path = args.trace_out.clone().unwrap_or_else(|| {
        format!(
            ".bench_out/{}-seed{}.trace.json",
            workload.name(),
            args.seed
        )
    });
    if let Some(dir) = std::path::Path::new(&path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, sink.to_chrome_json()).map_err(|e| format!("{path}: {e}"))?;
    outcome
        .notes
        .push(format!("Chrome trace ({} events): {path}", sink.len()));
    Ok(outcome)
}

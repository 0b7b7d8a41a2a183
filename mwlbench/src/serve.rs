//! The load side of the daemon probe: one TCP connection, one sender thread
//! that writes submissions at their due times (an open loop) and the calling
//! thread reading responses.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use mwl_driver::BatchJob;
use mwl_obs::{ArgValue, TraceEvent};
use mwl_serve::wire::{JobConfig, SubmitRequest, WireGraph, WireOutcome};
use mwl_serve::{Request, Response, ServerConfig, SpawnedServer};

use crate::stats::{percentile, secs, sleep_until};

/// The p99 latency limit of the sustained-rate ladder, milliseconds.  At
/// low load the serve mix's p99 is already 3–5 ms (an 8-variant portfolio race
/// on a small graph takes about that long, and results stream back in
/// order), so the limit sits at twice that: it is crossed by queueing, not by
/// the service time of one request.
pub const P99_LIMIT_MS: f64 = 10.0;

/// Longest the reader waits for the next response before giving up.
const STALL_LIMIT: Duration = Duration::from_secs(60);

/// The daemon configuration of the probe: one solve worker, the
/// default queue, dedup cache and width grid.
#[must_use]
fn server_config() -> ServerConfig {
    ServerConfig::default().with_workers(1)
}

/// One client connection to the daemon, opened once per daemon and
/// reused by every phase of a run.
#[derive(Debug)]
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let writer = mwl_serve::net::connect(addr).map_err(|e| format!("connect: {e}"))?;
        writer
            .set_read_timeout(Some(Duration::from_secs(1)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { writer, reader })
    }

    /// Sends one control request and returns the next response.  Only for
    /// use while no submission is outstanding.
    ///
    /// # Errors
    ///
    /// Transport or protocol failures.
    pub fn call(&mut self, request: &Request) -> Result<Response, String> {
        let mut line = request.encode();
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        read_response(&mut self.reader, &|| false).map(|(response, _)| response)
    }
}

/// Reads one response line, waiting out read timeouts until `abort` says
/// so or the daemon has been silent for [`STALL_LIMIT`]; returns it with
/// its arrival time.
fn read_response(
    reader: &mut BufReader<TcpStream>,
    abort: &dyn Fn() -> bool,
) -> Result<(Response, Instant), String> {
    let mut buf = String::new();
    let quiet_since = Instant::now();
    loop {
        // A timed-out read keeps the bytes it consumed in `buf`.
        match reader.read_line(&mut buf) {
            Ok(0) => return Err("daemon closed the connection".to_string()),
            Ok(_) => break,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if abort() || quiet_since.elapsed() > STALL_LIMIT {
                    return Err("no response from the daemon".to_string());
                }
            }
            Err(e) => return Err(format!("read: {e}")),
        }
    }
    let arrived = Instant::now();
    Response::parse(buf.trim_end())
        .map(|response| (response, arrived))
        .map_err(|e| format!("bad response: {e}"))
}

/// Starts a daemon, connects and waits until it answers a `ping`; returns
/// it with the connection.
///
/// # Errors
///
/// Propagates bind, connection and protocol failures.
pub fn start_daemon() -> Result<(SpawnedServer, Conn), String> {
    let server = SpawnedServer::start(server_config()).map_err(|e| format!("bind: {e}"))?;
    let mut conn = Conn::open(server.addr())?;
    match conn.call(&Request::Ping)? {
        Response::Pong => Ok((server, conn)),
        other => Err(format!("ping answered with {other:?}")),
    }
}

/// One submission line (with its newline) for a job, as a client would
/// send it.
#[must_use]
fn submit_line(id: u64, job: &BatchJob) -> String {
    let mut line = Request::Submit(SubmitRequest {
        id,
        label: Some(job.label.clone()),
        priority: 0,
        graph: WireGraph::from_graph(&job.graph),
        latency: job.latency,
        config: JobConfig {
            portfolio_seed: job.portfolio.map(|spec| spec.seed),
            portfolio_variants: job.portfolio.map(|spec| spec.variants as u64),
            ..JobConfig::default()
        },
    })
    .encode();
    line.push('\n');
    line
}

/// What one open-loop run observed.  Vectors are indexed by request.
#[derive(Debug, Default)]
pub struct LoopRun {
    /// Result arrival minus due time, milliseconds (`None`: rejected).
    pub from_due_ms: Vec<Option<f64>>,
    /// Result arrival minus actual send time, milliseconds.
    pub from_send_ms: Vec<Option<f64>>,
    /// How late each submission was written, milliseconds.
    pub late_ms: Vec<f64>,
    /// Each request's outcome (`None`: rejected).
    pub outcomes: Vec<Option<WireOutcome>>,
    /// Rejected submissions.
    pub rejected: u64,
    /// Most requests sent but not yet answered at any time.
    pub backlog_max: u64,
    /// Send instants (for trace spans).
    sent: Vec<Instant>,
    /// Arrival instants of results (for trace spans).
    arrived: Vec<Option<Instant>>,
}

impl LoopRun {
    /// Latencies from due time of every request, with rejected requests
    /// counted as missing any limit (infinite).
    #[must_use]
    pub fn latencies_with_misses(&self) -> Vec<f64> {
        self.from_due_ms
            .iter()
            .map(|l| l.unwrap_or(f64::INFINITY))
            .collect()
    }

    /// Nearest-rank percentile of [`latencies_with_misses`](Self::latencies_with_misses).
    #[must_use]
    pub fn latency_percentile(&self, p: f64) -> f64 {
        percentile(&self.latencies_with_misses(), p)
    }

    /// One `serve.request` span per answered request, send to result, in
    /// lane `tid`, timestamped from `epoch`.
    #[must_use]
    pub fn spans(&self, epoch: Instant, tid: u64, kinds: &[&'static str]) -> Vec<TraceEvent> {
        self.sent
            .iter()
            .zip(&self.arrived)
            .enumerate()
            .filter_map(|(i, (&sent, arrived))| {
                let arrived = (*arrived)?;
                Some(TraceEvent {
                    name: "serve.request",
                    cat: "serve",
                    ts_ns: nanos(sent.saturating_duration_since(epoch)),
                    dur_ns: nanos(arrived.saturating_duration_since(sent)),
                    tid,
                    args: vec![
                        ("id", ArgValue::Int(i as i64)),
                        ("kind", ArgValue::Str(kinds[i].to_string())),
                    ],
                })
            })
            .collect()
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Submits `requests[i]` as request id `i` at `i / rate` seconds after the
/// start, whatever the daemon is doing, and collects every response.
/// Request ids index the returned vectors.  The sender encodes each line
/// just before its due time, so memory stays flat however long the run.
///
/// # Errors
///
/// Transport failures, protocol errors, or no response for a minute.
pub fn open_loop(conn: &mut Conn, requests: &[&BatchJob], rate: f64) -> Result<LoopRun, String> {
    let n = requests.len();
    let sent_count = AtomicUsize::new(0);
    let sender_failed = AtomicBool::new(false);
    let start = Instant::now() + Duration::from_millis(2);
    let due = |i: usize| start + secs(i as f64 / rate);

    let mut run = LoopRun {
        from_due_ms: vec![None; n],
        from_send_ms: vec![None; n],
        outcomes: vec![None; n],
        arrived: vec![None; n],
        ..LoopRun::default()
    };
    let Conn { writer, reader } = conn;
    let sent = std::thread::scope(|scope| -> Result<Vec<Instant>, String> {
        let sender = scope.spawn(|| {
            let mut sent = Vec::with_capacity(n);
            for (i, job) in requests.iter().enumerate() {
                let line = submit_line(i as u64, job);
                sleep_until(due(i));
                sent.push(Instant::now());
                if writer.write_all(line.as_bytes()).is_err() {
                    sender_failed.store(true, Ordering::SeqCst);
                    break;
                }
                sent_count.fetch_add(1, Ordering::SeqCst);
            }
            sent
        });

        let mut resolved = 0usize;
        let mut failure = None;
        while resolved < n {
            let (response, now) =
                match read_response(reader, &|| sender_failed.load(Ordering::SeqCst)) {
                    Ok(r) => r,
                    Err(e) => {
                        failure = Some(e);
                        break;
                    }
                };
            let (id, outcome) = match response {
                Response::Accepted { .. } => continue,
                Response::Rejected { id, .. } => {
                    run.rejected += 1;
                    (id, None)
                }
                Response::Result { id, outcome } => (id, Some(outcome)),
                other => {
                    failure = Some(format!("unexpected response {other:?}"));
                    break;
                }
            };
            let i = usize::try_from(id).unwrap_or(usize::MAX);
            if i >= n {
                failure = Some(format!("response for unknown id {id}"));
                break;
            }
            let backlog = sent_count.load(Ordering::SeqCst).saturating_sub(resolved);
            run.backlog_max = run.backlog_max.max(backlog as u64);
            resolved += 1;
            if outcome.is_some() {
                run.from_due_ms[i] =
                    Some(now.saturating_duration_since(due(i)).as_secs_f64() * 1e3);
                run.arrived[i] = Some(now);
            }
            run.outcomes[i] = outcome;
        }
        if failure.is_some() {
            // Unblock the sender if it is still writing.
            let _ = reader.get_ref().shutdown(std::net::Shutdown::Both);
        }
        let sent = sender
            .join()
            .map_err(|_| "sender thread panicked".to_string())?;
        match failure {
            Some(f) => Err(f),
            None => Ok(sent),
        }
    })?;

    for (i, &s) in sent.iter().enumerate() {
        run.late_ms
            .push(s.saturating_duration_since(due(i)).as_secs_f64() * 1e3);
        if let Some(arrived) = run.arrived[i] {
            run.from_send_ms[i] = Some(arrived.saturating_duration_since(s).as_secs_f64() * 1e3);
        }
    }
    run.sent = sent;
    Ok(run)
}

/// Rungs tried at one rate before it counts as not sustained.
pub const RUNG_ATTEMPTS: usize = 3;

/// Whether a ladder rung met the service-level objective: p99 from due time
/// under [`P99_LIMIT_MS`] with nothing rejected (a growing backlog overruns
/// the bounded queue and is rejected).
#[must_use]
pub fn rung_passes(run: &LoopRun) -> bool {
    run.rejected == 0 && run.latency_percentile(99.0) <= P99_LIMIT_MS
}

/// Finds the highest arrival rate that [`rung_passes`]: climbs a geometric
/// ladder from `base` until a rung fails, then bisects the last step
/// `refinements` times.  `rung(rate)` runs one rung and reports whether it
/// passed; a rate counts as sustained when any of [`RUNG_ATTEMPTS`] rungs
/// at it passes, so a stretch of contention on the machine does not end
/// the climb (see [`crate::stats::lower_decile`]).
///
/// # Errors
///
/// Propagates rung failures.
pub fn sustained_rate(
    base: f64,
    refinements: usize,
    mut rung: impl FnMut(f64) -> Result<bool, String>,
) -> Result<f64, String> {
    const STEP: f64 = 1.25;
    const MAX_RUNGS: usize = 12;
    let mut rung = |rate: f64| -> Result<bool, String> {
        for _ in 0..RUNG_ATTEMPTS {
            if rung(rate)? {
                return Ok(true);
            }
        }
        Ok(false)
    };
    let mut pass = 0.0;
    let mut fail = base;
    for k in 0..MAX_RUNGS {
        let rate = base * STEP.powi(k as i32);
        if rung(rate)? {
            pass = rate;
            fail = rate * STEP;
        } else {
            fail = rate;
            break;
        }
    }
    if pass == 0.0 {
        // Even the base rung failed: halve it (twice at most) until a rung
        // passes, so the result is never zero.
        let mut rate = base;
        for _ in 0..2 {
            rate /= 2.0;
            if rung(rate)? {
                return Ok(rate);
            }
        }
        return Ok(rate);
    }
    for _ in 0..refinements {
        let mid = (pass * fail).sqrt();
        if rung(mid)? {
            pass = mid;
        } else {
            fail = mid;
        }
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_finds_the_threshold() {
        let threshold = 3100.0;
        let rate = sustained_rate(1000.0, 4, |r| Ok(r <= threshold)).unwrap();
        assert!(rate <= threshold && rate > threshold / 1.1, "{rate}");
        let low = sustained_rate(1000.0, 0, |r| Ok(r <= 300.0)).unwrap();
        assert_eq!(low, 250.0);
        let floor = sustained_rate(1000.0, 0, |_| Ok(false)).unwrap();
        assert_eq!(floor, 250.0);
    }
}

//! Deterministic byte-mutation tests of the JSON parser, the wire decoders
//! and the live daemon.
//!
//! Valid request and response lines are corrupted by seeded byte flips,
//! insertions, deletions, truncations and duplicated slices, then fed to
//! [`Json::parse`], [`Request::parse`] and [`Response::parse`].  None may
//! panic, and every line one of them accepts must re-encode to a line that
//! parses back to the same value.  The mutated lines that decode as
//! submissions are then sent, raw, to a running daemon, which must answer
//! each and keep serving.  The seed and iteration count are fixed, so a
//! failure reproduces exactly.
//!
//! A committed corpus under `tests/corpus/` is replayed, byte for byte,
//! against a live daemon too.  `edge_cases.txt` is written by hand:
//! integers past `u64` and `i64`, invalid UTF-8, nesting at
//! [`MAX_DEPTH`](mwl_serve::json::MAX_DEPTH) and one level past it, empty
//! and whitespace-only lines, duplicate keys.  `mutated.txt` holds 48 lines
//! of the seeded stream below: the first 24 without a raw newline that
//! decode as submissions, alternating with the first 24 that decode as
//! anything but a submission or a shutdown.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mwl_core::BindingCertificate;
use mwl_driver::LatencySpec;
use mwl_model::{AreaBreakdown, OpShape};
use mwl_serve::json::Json;
use mwl_serve::wire::{
    CancelOutcome, JobConfig, Request, Response, StatsSnapshot, SubmitRequest, WireGraph,
    WireHistogram, WireOutcome, WirePortfolio, WireStats, CODE_GRAPH_TOO_LARGE, CODE_INVALID_GRAPH,
    CODE_QUEUE_FULL,
};
use mwl_serve::{Client, MetricsReply, ServerConfig, SpawnedServer};

const SEED: u64 = 0x5eed_2001;
const ITERATIONS: usize = 60_000;

/// Mutated submissions sent to the live daemon.
const LIVE_SUBMISSIONS: usize = 400;

/// Bytes a mutation inserts: JSON's structural characters and number
/// spellings, plus a few that are never valid outside strings.
const ALPHABET: &[u8] = b"{}[]\",:\\/ 0123456789-+.eEtrufalsn\x00\x1f\x7f";

fn valid_lines() -> Vec<String> {
    let graph = WireGraph {
        ops: vec![
            OpShape::adder(8),
            OpShape::multiplier(12, 9),
            OpShape::subtractor(16),
        ],
        edges: vec![(0, 1), (1, 2)],
    };
    let requests = [
        Request::Submit(SubmitRequest {
            id: 7,
            label: Some("fir \"tap\" \\ 1\n\u{1F600}".into()),
            priority: -3,
            graph: graph.clone(),
            latency: LatencySpec::RelaxSteps(2),
            config: JobConfig {
                adder_bound: Some(2),
                portfolio_seed: Some(42),
                portfolio_variants: Some(6),
                ..JobConfig::default()
            },
        }),
        Request::Submit(SubmitRequest {
            id: 8,
            label: None,
            priority: 0,
            graph,
            latency: LatencySpec::Absolute(9),
            config: JobConfig::default(),
        }),
        Request::Cancel { id: 7 },
        Request::Stats,
        Request::Metrics,
        Request::Ping,
        Request::Shutdown,
    ];
    let stats = WireStats {
        lambda: 10,
        area: 900,
        area_breakdown: AreaBreakdown {
            fu: 900,
            register: 96,
            mux: 40,
        },
        certificate: BindingCertificate::Optimal,
        latency: 9,
        instances: 3,
        refinements: 1,
        escalations: 0,
        merges: 1,
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
    };
    let responses = [
        Response::Accepted { id: 9 },
        Response::Rejected {
            id: 1,
            code: CODE_QUEUE_FULL,
            reason: "queue_full".into(),
        },
        Response::Result {
            id: 2,
            outcome: WireOutcome::Ok(stats),
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
            queue_capacity: 64,
            ..StatsSnapshot::default()
        }),
        Response::Metrics(MetricsReply {
            dedup_hits: 4,
            dedup_misses: 6,
            histograms: vec![WireHistogram {
                name: "serve.alloc_ns".into(),
                count: 10,
                sum: 5_000_000,
                min: 100_000,
                max: 900_000,
                p50: 480_000,
                p95: 880_000,
                p99: 900_000,
            }],
        }),
        Response::Pong,
        Response::ShutdownAck { drained: 3 },
        Response::Error {
            message: "bad \"line\"".into(),
        },
    ];
    requests
        .iter()
        .map(Request::encode)
        .chain(responses.iter().map(Response::encode))
        .collect()
}

/// Applies one to four random corruptions to `line`.
fn mutate(rng: &mut StdRng, line: &[u8]) -> Vec<u8> {
    let mut bytes = line.to_vec();
    for _ in 0..rng.gen_range(1..=4usize) {
        let len = bytes.len();
        let at = rng.gen_range(0..=len);
        match rng.gen_range(0..5u32) {
            // Flip one bit of a byte.
            0 if at < len => bytes[at] ^= 1 << rng.gen_range(0..8u32),
            // Insert a byte, usually a structurally meaningful one.
            1 => {
                let byte = if rng.gen_bool(0.8) {
                    ALPHABET[rng.gen_range(0..ALPHABET.len())]
                } else {
                    rng.gen_range(0..=255u8)
                };
                bytes.insert(at, byte);
            }
            // Delete a byte.
            2 if at < len => {
                bytes.remove(at);
            }
            // Truncate.
            3 => bytes.truncate(at),
            // Duplicate a slice in place (repeated keys, doubled brackets).
            _ => {
                let end = rng.gen_range(at..=len.min(at + 16));
                let slice = bytes[at..end].to_vec();
                bytes.splice(at..at, slice);
            }
        }
    }
    bytes
}

/// The seeded stream of mutated lines, each decoded lossily as UTF-8.
fn mutated_lines() -> impl Iterator<Item = String> {
    let lines = valid_lines();
    let mut rng = StdRng::seed_from_u64(SEED);
    (0..ITERATIONS).map(move |_| {
        let base = &lines[rng.gen_range(0..lines.len())];
        String::from_utf8_lossy(&mutate(&mut rng, base.as_bytes())).into_owned()
    })
}

#[test]
fn mutated_lines_never_panic_and_accepted_lines_round_trip() {
    let (mut json_ok, mut request_ok, mut response_ok) = (0, 0, 0);
    for (i, line) in mutated_lines().enumerate() {
        if let Ok(value) = Json::parse(&line) {
            json_ok += 1;
            let again = Json::parse(&value.encode());
            assert_eq!(again.as_ref(), Ok(&value), "iteration {i}: {line}");
            let pretty = Json::parse(&value.encode_pretty());
            assert_eq!(pretty.as_ref(), Ok(&value), "iteration {i}: {line}");
        }
        if let Ok(request) = Request::parse(&line) {
            request_ok += 1;
            let again = Request::parse(&request.encode()).ok();
            assert_eq!(again.as_ref(), Some(&request), "iteration {i}: {line}");
        }
        if let Ok(response) = Response::parse(&line) {
            response_ok += 1;
            let again = Response::parse(&response.encode()).ok();
            assert_eq!(again.as_ref(), Some(&response), "iteration {i}: {line}");
        }
    }
    // The mutations are mild enough that many lines survive each decoder,
    // so the round-trip half of the test is exercised too.
    assert!(json_ok > 100 && request_ok > 100 && response_ok > 100);
}

/// The first mutated lines that decode as submissions, sent raw to a live
/// daemon over one connection, are each answered with an admission and then
/// a result, or with a typed rejection; afterwards the daemon still answers
/// a ping.  Other request kinds are skipped: a mutated `shutdown` or
/// `cancel` would end or steer the run.  So are lines with a raw newline,
/// which the wire would split in two.
#[test]
fn mutated_submissions_are_answered_and_the_daemon_survives() {
    let server = SpawnedServer::start(ServerConfig::default()).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");
    let submissions = mutated_lines()
        .filter(|line| !line.contains('\n'))
        .filter_map(|line| match Request::parse(&line) {
            Ok(Request::Submit(submit)) => Some((submit.id, line)),
            _ => None,
        })
        .take(LIVE_SUBMISSIONS);
    let (mut sent, mut accepted) = (0u64, 0u64);
    for (id, line) in submissions {
        sent += 1;
        client.send_raw(&line).expect("send");
        match client.read_control().expect("an answer") {
            Response::Accepted { id: got } => {
                assert_eq!(got, id, "{line}");
                let (got, outcome) = client.next_result().expect("a result");
                assert_eq!(got, id, "{line}");
                assert_ne!(outcome, WireOutcome::Cancelled, "{line}");
                accepted += 1;
            }
            Response::Rejected { id: got, code, .. } => {
                assert_eq!(got, id, "{line}");
                assert!(
                    [CODE_INVALID_GRAPH, CODE_GRAPH_TOO_LARGE].contains(&code),
                    "{line}: code {code}"
                );
            }
            other => panic!("{line} answered with {other:?}"),
        }
    }
    assert!(accepted >= 300, "only {accepted} of {sent} admitted");
    client.ping().expect("the daemon answers after the stream");
    client.shutdown().expect("shutdown");
    let stats = server.join();
    assert_eq!((stats.accepted, stats.completed), (accepted, accepted));
}

/// Every line of the committed corpus, sent raw over one connection, is
/// answered — a submission with an admission and then its result — or
/// refused with a typed code; a blank line gets no answer.  A line left
/// unanswered for 20 s fails the test, naming the line.  Afterwards the
/// daemon still answers a ping.
#[test]
fn corpus_lines_are_answered_or_refused_and_the_daemon_survives() {
    let corpus = [
        &include_bytes!("corpus/edge_cases.txt")[..],
        &include_bytes!("corpus/mutated.txt")[..],
    ];
    let server = SpawnedServer::start(ServerConfig::default()).expect("start");
    let mut writer = TcpStream::connect(server.addr()).expect("connect");
    writer
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    let mut reader = BufReader::new(writer.try_clone().expect("clone"));
    let mut read = |sent: &str| {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => panic!("{sent}: connection closed"),
            Ok(_) => Response::parse(line.trim_end()).expect("a well-formed response"),
            Err(e) => panic!("{sent}: no answer ({e})"),
        }
    };
    let (mut answered, mut accepted) = (0u64, 0u64);
    for line in corpus.iter().flat_map(|file| file.split(|&b| b == b'\n')) {
        let shown = String::from_utf8_lossy(line);
        writer.write_all(&[line, b"\n"].concat()).expect("send");
        if shown.trim().is_empty() {
            continue;
        }
        answered += 1;
        match read(&shown) {
            Response::Accepted { id } => {
                accepted += 1;
                match read(&shown) {
                    Response::Result { id: got, outcome } => {
                        assert_eq!(got, id, "{shown}");
                        assert_ne!(outcome, WireOutcome::Cancelled, "{shown}");
                    }
                    other => panic!("{shown}: admitted, then {other:?}"),
                }
            }
            Response::Rejected { code, .. } => assert!(
                [CODE_INVALID_GRAPH, CODE_GRAPH_TOO_LARGE].contains(&code),
                "{shown}: code {code}"
            ),
            Response::Result { .. } => panic!("{shown}: a result before an admission"),
            _ => {}
        }
    }
    assert!(
        answered >= 60 && accepted >= 20,
        "{answered} answered, {accepted} admitted"
    );
    writer
        .write_all(format!("{}\n", Request::Ping.encode()).as_bytes())
        .expect("send");
    assert_eq!(
        read("ping"),
        Response::Pong,
        "the daemon answers after the corpus"
    );
    drop(writer);
    let stats = server.stop_and_join();
    assert_eq!((stats.accepted, stats.completed), (accepted, accepted));
}

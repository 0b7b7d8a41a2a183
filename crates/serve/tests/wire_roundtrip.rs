//! Property tests of the wire protocol: every request and response type
//! round-trips losslessly (and canonically) through the workspace's JSON
//! codec, including escape-heavy strings and every error variant, and no
//! corrupted line is ever mis-parsed into a message.

use proptest::prelude::*;

use mwl_core::BindingCertificate;
use mwl_driver::LatencySpec;
use mwl_model::{AreaBreakdown, OpShape};
use mwl_serve::wire::{
    CancelOutcome, JobConfig, Request, Response, StatsSnapshot, SubmitRequest, WireGraph,
    WireOutcome, WirePortfolio, WireStats, CODE_GRAPH_TOO_LARGE, CODE_INVALID_GRAPH,
    CODE_QUEUE_FULL, CODE_SHUTTING_DOWN,
};

/// Strings biased towards everything the JSON escaper must handle: quotes,
/// backslashes, control characters, multi-byte UTF-8 and astral-plane
/// characters (which exercise the `\uXXXX` surrogate-pair path).
fn string_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            Just('a'),
            Just('Z'),
            Just('7'),
            Just(' '),
            Just('"'),
            Just('\\'),
            Just('/'),
            Just('\n'),
            Just('\r'),
            Just('\t'),
            Just('\u{0}'),
            Just('\u{8}'),
            Just('\u{c}'),
            Just('\u{1f}'),
            Just('\u{7f}'),
            Just('é'),
            Just('λ'),
            Just('\u{1F600}'),
        ],
        0..24,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

/// Non-negative integers that survive the i64-based JSON integer encoding.
fn u63() -> impl Strategy<Value = u64> {
    0u64..=(i64::MAX as u64)
}

fn op_strategy() -> impl Strategy<Value = OpShape> {
    prop_oneof![
        (1u32..=64).prop_map(OpShape::adder),
        (1u32..=64).prop_map(OpShape::subtractor),
        (1u32..=64, 1u32..=64).prop_map(|(a, b)| OpShape::multiplier(a, b)),
    ]
}

/// Arbitrary *unvalidated* wire graphs: edges may dangle, duplicate or form
/// cycles — the wire layer must carry them faithfully either way (validation
/// happens later, in `WireGraph::to_graph`).
fn graph_strategy() -> impl Strategy<Value = WireGraph> {
    (
        proptest::collection::vec(op_strategy(), 1..8),
        proptest::collection::vec((0u32..24, 0u32..24), 0..10),
    )
        .prop_map(|(ops, edges)| WireGraph { ops, edges })
}

fn latency_strategy() -> impl Strategy<Value = LatencySpec> {
    prop_oneof![
        (0u32..=10_000).prop_map(LatencySpec::Absolute),
        (0u32..=10_000).prop_map(LatencySpec::RelaxSteps),
        (0u32..=10_000).prop_map(LatencySpec::RelaxPercent),
    ]
}

fn option_u64() -> impl Strategy<Value = Option<u64>> {
    prop_oneof![Just(None), (0u64..=1_000_000).prop_map(Some)]
}

/// The optional portfolio request: both fields present or neither (the
/// parser rejects half-specified pairs, so only whole pairs are wire-legal).
fn portfolio_pair() -> impl Strategy<Value = Option<(u64, u64)>> {
    prop_oneof![
        Just(None),
        ((0u64..=1_000_000), (0u64..=2048)).prop_map(Some),
    ]
}

fn config_strategy() -> impl Strategy<Value = JobConfig> {
    (
        (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()),
        (option_u64(), option_u64(), option_u64()),
        portfolio_pair(),
    )
        .prop_map(
            |(
                (instance_merging, grow_cliques, input_order_priority, first_refinable),
                (adder_bound, multiplier_bound, max_iterations),
                portfolio,
            )| JobConfig {
                instance_merging,
                grow_cliques,
                input_order_priority,
                first_refinable,
                adder_bound,
                multiplier_bound,
                max_iterations,
                portfolio_seed: portfolio.map(|(seed, _)| seed),
                portfolio_variants: portfolio.map(|(_, variants)| variants),
            },
        )
}

fn submit_strategy() -> impl Strategy<Value = SubmitRequest> {
    (
        u63(),
        prop_oneof![Just(None), string_strategy().prop_map(Some)],
        any::<i64>(),
        graph_strategy(),
        latency_strategy(),
        config_strategy(),
    )
        .prop_map(
            |(id, label, priority, graph, latency, config)| SubmitRequest {
                id,
                label,
                priority,
                graph,
                latency,
                config,
            },
        )
}

fn request_strategy() -> impl Strategy<Value = Request> {
    prop_oneof![
        submit_strategy().prop_map(Request::Submit),
        u63().prop_map(|id| Request::Cancel { id }),
        Just(Request::Stats),
        Just(Request::Ping),
        Just(Request::Shutdown),
    ]
}

/// Portfolio stat blocks, escape-heavy winner labels included.
fn wire_portfolio_strategy() -> impl Strategy<Value = WirePortfolio> {
    (
        (u63(), 0u64..=1024, 0u64..=1024, 0u64..=1024),
        (0u64..=1024, string_strategy(), option_u64(), 0u64..=100_000),
    )
        .prop_map(
            |((seed, variants, solved, failed), (winner, winner_label, variant0_area, saved))| {
                WirePortfolio {
                    seed,
                    variants,
                    solved,
                    failed,
                    winner,
                    winner_label,
                    variant0_area,
                    area_saved: saved,
                }
            },
        )
}

fn stats_strategy() -> impl Strategy<Value = WireStats> {
    (
        (0u32..=100_000, u63(), 0u32..=100_000),
        (
            0u64..=100_000,
            0u64..=100_000,
            0u64..=100_000,
            0u64..=100_000,
        ),
        (u63(), u63(), any::<bool>()),
        prop_oneof![Just(None), wire_portfolio_strategy().prop_map(Some)],
    )
        .prop_map(
            |(
                (lambda, area, latency),
                (instances, refinements, escalations, merges),
                (register, mux, optimal),
                portfolio,
            )| WireStats {
                lambda,
                area,
                area_breakdown: AreaBreakdown {
                    fu: area,
                    register,
                    mux,
                },
                certificate: if optimal {
                    BindingCertificate::Optimal
                } else {
                    BindingCertificate::Heuristic
                },
                latency,
                instances,
                refinements,
                escalations,
                merges,
                portfolio,
            },
        )
}

fn outcome_strategy() -> impl Strategy<Value = WireOutcome> {
    prop_oneof![
        stats_strategy().prop_map(WireOutcome::Ok),
        string_strategy().prop_map(|error| WireOutcome::Failed { error }),
        Just(WireOutcome::Cancelled),
    ]
}

fn snapshot_strategy() -> impl Strategy<Value = StatsSnapshot> {
    (
        (u63(), u63(), u63(), u63(), u63()),
        (u63(), u63(), u63(), u63(), u63()),
        u63(),
    )
        .prop_map(
            |(
                (accepted, completed, failed, cancelled, rejected),
                (dedup_hits, dedup_misses, queue_depth, in_flight, workers),
                queue_capacity,
            )| StatsSnapshot {
                accepted,
                completed,
                failed,
                cancelled,
                rejected,
                dedup_hits,
                dedup_misses,
                queue_depth,
                in_flight,
                workers,
                queue_capacity,
            },
        )
}

fn response_strategy() -> impl Strategy<Value = Response> {
    let code = prop_oneof![
        Just(CODE_INVALID_GRAPH),
        Just(CODE_GRAPH_TOO_LARGE),
        Just(CODE_QUEUE_FULL),
        Just(CODE_SHUTTING_DOWN),
    ];
    prop_oneof![
        u63().prop_map(|id| Response::Accepted { id }),
        (u63(), code, string_strategy()).prop_map(|(id, code, reason)| Response::Rejected {
            id,
            code,
            reason
        }),
        (u63(), outcome_strategy()).prop_map(|(id, outcome)| Response::Result { id, outcome }),
        (
            u63(),
            prop_oneof![
                Just(CancelOutcome::Queued),
                Just(CancelOutcome::InFlight),
                Just(CancelOutcome::Unknown),
            ]
        )
            .prop_map(|(id, outcome)| Response::CancelAck { id, outcome }),
        snapshot_strategy().prop_map(Response::Stats),
        Just(Response::Pong),
        u63().prop_map(|drained| Response::ShutdownAck { drained }),
        string_strategy().prop_map(|message| Response::Error { message }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Every request round-trips losslessly, and the encoding is canonical:
    /// re-encoding the parsed message reproduces the line byte for byte.
    #[test]
    fn requests_round_trip(request in request_strategy()) {
        let line = request.encode();
        let parsed = Request::parse(&line).expect("canonical line must parse");
        prop_assert_eq!(&parsed, &request);
        prop_assert_eq!(parsed.encode(), line);
    }

    /// Every response — including every error and rejection variant —
    /// round-trips losslessly and canonically.
    #[test]
    fn responses_round_trip(response in response_strategy()) {
        let line = response.encode();
        let parsed = Response::parse(&line).expect("canonical line must parse");
        prop_assert_eq!(&parsed, &response);
        prop_assert_eq!(parsed.encode(), line);
    }

    /// No strict prefix of an encoded message parses: a line cut off
    /// mid-stream is always detected as an error, never silently accepted
    /// as a different message.
    #[test]
    fn truncated_lines_never_parse(
        request in request_strategy(),
        cut in 0usize..=200,
    ) {
        let line = request.encode();
        // Truncate at a character boundary strictly inside the line.
        let cut = line
            .char_indices()
            .map(|(i, _)| i)
            .take_while(|&i| i <= cut)
            .last()
            .unwrap_or(0);
        if cut < line.len() {
            prop_assert!(Request::parse(&line[..cut]).is_err());
            prop_assert!(Response::parse(&line[..cut]).is_err());
        }
    }
}

//! Criterion bench of the wordlength-compatibility-graph bitset kernels in
//! isolation, against problem size, so a kernel-level regression is visible
//! without re-running the end-to-end `perf_gate`.
//!
//! Run with `cargo bench -p mwl_bench --bench wcg_kernels`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mwl_model::{OpId, SonicCostModel};
use mwl_sched::asap;
use mwl_tgff::{TgffConfig, TgffGenerator};
use mwl_wcg::{ChainScratch, WordlengthCompatibilityGraph};

/// Builds a scheduled WCG for the given problem size.
fn scheduled_wcg(ops: usize) -> WordlengthCompatibilityGraph {
    let graph = TgffGenerator::new(TgffConfig::with_ops(ops), 271).generate();
    let cost = SonicCostModel::default();
    let mut wcg = WordlengthCompatibilityGraph::new(&graph, &cost);
    let upper = wcg.upper_bound_latencies();
    let schedule = asap(&graph, &upper);
    wcg.attach_schedule(&schedule, &upper);
    wcg
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("wcg_kernels");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(1));
    group.warm_up_time(std::time::Duration::from_millis(200));

    for &ops in &[16usize, 32, 64] {
        let wcg = scheduled_wcg(ops);
        let ids: Vec<OpId> = (0..ops as u32).map(OpId::new).collect();
        let label = format!("{ops}ops");

        // The per-round covering query: longest chain per resource over the
        // uncovered set, on warm scratch.
        let covered = vec![false; ops];
        let mut scratch = ChainScratch::default();
        let mut chain = Vec::new();
        group.bench_with_input(BenchmarkId::new("max_chain_into", &label), &(), |b, ()| {
            b.iter(|| {
                let mut total = 0usize;
                for r in 0..wcg.resources().len() {
                    wcg.max_chain_into(r, &covered, &mut scratch, &mut chain);
                    total += chain.len();
                }
                total
            })
        });

        // The clique-growth feasibility probe: is the whole op set one chain?
        group.bench_with_input(BenchmarkId::new("is_chain", &label), &(), |b, ()| {
            b.iter(|| wcg.is_chain(&ids))
        });

        // The structural probe grid behind candidate enumeration.
        group.bench_with_input(BenchmarkId::new("has_edge_grid", &label), &(), |b, ()| {
            b.iter(|| {
                let mut edges = 0usize;
                for &op in &ids {
                    for r in 0..wcg.resources().len() {
                        edges += usize::from(wcg.has_edge(op, r));
                    }
                }
                edges
            })
        });

        // The mask primitives of clique growth and the popcount pre-skip.
        let mut mask = vec![0u64; wcg.op_mask_words()];
        for i in 0..ops {
            mask[i / 64] |= 1 << (i % 64);
        }
        group.bench_with_input(BenchmarkId::new("mask_probes", &label), &(), |b, ()| {
            b.iter(|| {
                let mut count = 0usize;
                for r in 0..wcg.resources().len() {
                    count += wcg.mask_candidate_count(&mask, r);
                    count += usize::from(wcg.mask_covered_by(&mask, r));
                }
                count
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);

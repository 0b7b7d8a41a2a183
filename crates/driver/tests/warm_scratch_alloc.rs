//! `run_batch` reuses the calling thread's warm scratch, asserted with a
//! counting allocator: three identical sequential calls on one job, where
//! the first grows the scratch and every repeat pays the same, smaller
//! count.
//!
//! The one `#[test]` lives alone in this binary so the global counter is
//! never read concurrently by a second libtest thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mwl_driver::{run_batch, BatchJob, BatchOptions, LatencySpec};
use mwl_model::SonicCostModel;
use mwl_tgff::{GraphShape, TgffConfig, TgffGenerator};

/// Counts every allocation and reallocation; frees are uncounted.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

#[test]
fn repeated_sequential_batches_reuse_the_threads_scratch() {
    let cost = SonicCostModel::default();
    // A 40-op graph that escalates its bounds and replays iterations, so
    // the iteration memo's tables count too.
    let graph =
        TgffGenerator::new(TgffConfig::with_ops(40).shape(GraphShape::Layered), 0).generate();
    let jobs = [BatchJob::new(
        "escalating",
        graph,
        LatencySpec::RelaxPercent(30),
    )];
    let calls: Vec<u64> = (0..3)
        .map(|_| {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let report = run_batch(&jobs, &cost, &BatchOptions::sequential());
            let delta = ALLOCATIONS.load(Ordering::Relaxed) - before;
            assert_eq!(report.summary().failed, 0);
            assert!(report.summary().total_escalations > 0, "the job escalates");
            delta
        })
        .collect();
    assert!(
        calls[2] == calls[1] && calls[1] < calls[0],
        "run_batch does not reuse the thread's scratch: {calls:?}"
    );
}

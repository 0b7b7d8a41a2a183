//! The metrics registry: counters and log-bucketed histograms.
//!
//! All metric handles are lock-free after registration (plain atomics), so
//! recording from a hot path or from many threads needs no coordination.
//! Registration itself (name → handle) takes a mutex and is expected to
//! happen once at setup time; handles are `Arc`s the caller keeps.
//!
//! [`Histogram`] uses HDR-style log-linear bucketing: 32 linear sub-buckets
//! per power of two, giving ≈3% relative resolution over the full `u64`
//! range with a fixed 1920-slot table.  Quantiles are answered from the
//! bucket boundaries (each reported value is a bucket's *upper* bound,
//! clamped into the recorded `[min, max]`), which makes them deterministic
//! for a given multiset of recordings regardless of arrival order.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Linear sub-buckets per power of two: 2^5 = 32 → ≈3% worst-case relative
/// error on reported quantiles.
const SUB_BITS: u32 = 5;
const SUB_COUNT: u64 = 1 << SUB_BITS;
/// Values below `SUB_COUNT` get one exact bucket each; each of the
/// remaining 59 octaves (msb 5..=63) gets `SUB_COUNT` buckets.
const NUM_BUCKETS: usize = (60 * SUB_COUNT) as usize;

fn bucket_index(v: u64) -> usize {
    if v < SUB_COUNT {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    let block = (msb - SUB_BITS + 1) as u64;
    (block * SUB_COUNT + ((v >> shift) & (SUB_COUNT - 1))) as usize
}

/// The largest value mapping to bucket `index`.
fn bucket_upper_bound(index: usize) -> u64 {
    let index = index as u64;
    if index < SUB_COUNT {
        return index;
    }
    let block = index / SUB_COUNT;
    let sub = index % SUB_COUNT;
    let shift = (block - 1) as u32;
    // The bucket covers [(SUB_COUNT + sub) << shift, ((SUB_COUNT + sub + 1) << shift) - 1].
    ((SUB_COUNT + sub + 1) << shift).wrapping_sub(1)
}

/// A concurrent log-linear histogram of `u64` samples (typically
/// nanoseconds).
///
/// Recording is wait-free (four relaxed atomic ops); quantile queries are
/// answered from a [`HistogramSnapshot`].
pub struct Histogram {
    buckets: Box<[AtomicU64; NUM_BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count.load(Ordering::Relaxed))
            .field("sum", &self.sum.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        let buckets: Vec<AtomicU64> = (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let buckets: Box<[AtomicU64; NUM_BUCKETS]> = buckets
            .into_boxed_slice()
            .try_into()
            .expect("bucket table has NUM_BUCKETS entries");
        Histogram {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Nearest-rank percentile (`p` in percent, `50.0` → median) from the
    /// bucket boundaries; `0` when empty.  See
    /// [`HistogramSnapshot::percentile`].
    #[must_use]
    pub fn percentile(&self, p: f64) -> u64 {
        self.snapshot().percentile(p)
    }

    /// A point-in-time copy answering queries without further
    /// synchronisation.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, bucket) in self.buckets.iter().enumerate() {
            let n = bucket.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((bucket_upper_bound(i), n));
            }
        }
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A point-in-time copy of a [`Histogram`]: `(bucket upper bound, count)`
/// pairs for the non-empty buckets plus exact count/sum/min/max.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Exact sum of all samples.
    pub sum: u64,
    /// Exact smallest sample (`0` when empty).
    pub min: u64,
    /// Exact largest sample (`0` when empty).
    pub max: u64,
    /// Non-empty buckets as `(upper bound, count)`, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Nearest-rank percentile (`p` in percent) from the bucket boundaries:
    /// the upper bound of the bucket containing the sample of rank
    /// `⌈p/100·count⌉`, clamped into `[min, max]`.  Deterministic for a given
    /// multiset of samples; `0` when empty.
    #[must_use]
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = (p / 100.0).clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0;
        for &(upper, n) in &self.buckets {
            cumulative += n;
            if cumulative >= rank {
                return upper.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Exact arithmetic mean (`0.0` when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Exact nearest-rank percentile of an **ascending-sorted** sample slice:
/// element of rank `⌈p/100·n⌉` (clamped to `1..=n`); `0.0` when empty.
///
/// This is the exact-sample companion to the bucketed [`Histogram`]: the
/// `mwlbench` benchmark takes its percentiles with it, and the histogram
/// proptest compares the bucketed quantiles against it.
#[must_use]
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Histogram(Arc<Histogram>),
}

/// A named registry of metrics.
///
/// Lookup-or-register takes a mutex; the returned `Arc` handles record
/// lock-free.  Names are reported in lexicographic order, so snapshots are
/// deterministic.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Returns the counter named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    #[must_use]
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut metrics = self.metrics.lock().expect("metrics registry poisoned");
        let metric = metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())));
        match metric {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("metric {name:?} is already registered with a different kind"),
        }
    }

    /// Returns the histogram named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut metrics = self.metrics.lock().expect("metrics registry poisoned");
        let metric = metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())));
        match metric {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("metric {name:?} is already registered with a different kind"),
        }
    }

    /// A point-in-time snapshot of every registered metric, names sorted.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let metrics = self.metrics.lock().expect("metrics registry poisoned");
        let mut snapshot = MetricsSnapshot::default();
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => snapshot.counters.push((name.clone(), c.get())),
                Metric::Histogram(h) => snapshot.histograms.push((name.clone(), h.snapshot())),
            }
        }
        snapshot
    }
}

/// A point-in-time copy of a [`MetricsRegistry`], name-sorted within each
/// kind.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, snapshot)` for every histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::default();
        c.add(3);
        c.add(4);
        assert_eq!(c.get(), 7);
    }

    #[test]
    fn bucket_bounds_contain_their_values() {
        for v in [
            0u64,
            1,
            31,
            32,
            33,
            100,
            1_000,
            123_456,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let i = bucket_index(v);
            let upper = bucket_upper_bound(i);
            assert!(upper >= v, "upper bound {upper} below value {v}");
            if i > 0 {
                assert!(
                    bucket_upper_bound(i - 1) < v,
                    "value {v} fits an earlier bucket"
                );
            }
            // ≈3% relative resolution: bucket width ≤ value / 32 (+1 rounding).
            if v >= SUB_COUNT {
                let lower = bucket_upper_bound(i - 1) + 1;
                let width = upper - lower + 1;
                assert!(width <= v / 16, "bucket too wide at {v}");
            }
        }
    }

    #[test]
    fn histogram_quantiles_are_ordered_and_bounded() {
        let h = Histogram::new();
        assert_eq!(h.percentile(50.0), 0);
        for v in 1..=1_000u64 {
            h.record(v * 1_000);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 1_000);
        assert_eq!(snap.min, 1_000);
        assert_eq!(snap.max, 1_000_000);
        let p50 = snap.percentile(50.0);
        let p95 = snap.percentile(95.0);
        let p99 = snap.percentile(99.0);
        assert!(p50 <= p95 && p95 <= p99 && p99 <= snap.max);
        // ≈3% accuracy against the exact nearest-rank answers.
        assert!((p50 as f64 - 500_000.0).abs() / 500_000.0 < 0.04, "{p50}");
        assert!((p99 as f64 - 990_000.0).abs() / 990_000.0 < 0.04, "{p99}");
        assert!((snap.mean() - 500_500.0).abs() < 1.0);
    }

    #[test]
    fn single_sample_quantiles_are_exact() {
        let h = Histogram::new();
        h.record(12_345);
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), 12_345);
        }
    }

    #[test]
    fn nearest_rank_matches_reference_semantics() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&sorted, 50.0), 50.0);
        assert_eq!(nearest_rank(&sorted, 99.0), 99.0);
        assert_eq!(nearest_rank(&sorted, 100.0), 100.0);
        assert_eq!(nearest_rank(&[42.0], 50.0), 42.0);
        assert_eq!(nearest_rank(&[], 99.0), 0.0);
        assert_eq!(nearest_rank(&sorted, 0.0), 1.0);
    }

    #[test]
    fn registry_snapshot_is_name_sorted() {
        let r = MetricsRegistry::new();
        r.counter("z.count").add(2);
        r.counter("a.count").add(1);
        r.histogram("lat_ns").record(777);
        // Re-registration returns the same handle.
        r.counter("a.count").add(1);
        let snap = r.snapshot();
        assert_eq!(
            snap.counters,
            vec![("a.count".to_string(), 2), ("z.count".to_string(), 2)]
        );
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.histograms[0].0, "lat_ns");
        assert_eq!(snap.histograms[0].1.count, 1);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let r = MetricsRegistry::new();
        let _ = r.counter("m");
        let _ = r.histogram("m");
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn histogram_quantiles_track_exact_percentiles(
            samples in prop::collection::vec(1u64..10_000_000, 1..300),
            p in 1.0f64..100.0,
        ) {
            let h = Histogram::new();
            for &s in &samples {
                h.record(s);
            }
            let mut exact: Vec<f64> = samples.iter().map(|&s| s as f64).collect();
            exact.sort_by(f64::total_cmp);
            let reference = nearest_rank(&exact, p);
            let bucketed = h.percentile(p) as f64;
            // The bucketed answer may round up to its bucket's upper bound:
            // never below the exact nearest-rank sample, and at most ~3.2% above.
            prop_assert!(bucketed >= reference);
            prop_assert!(bucketed <= reference * 1.033 + 1.0);
        }

        #[test]
        fn bucket_round_trip(v in any::<u64>()) {
            let i = bucket_index(v);
            prop_assert!(i < NUM_BUCKETS);
            prop_assert!(bucket_upper_bound(i) >= v);
            if i > 0 {
                prop_assert!(bucket_upper_bound(i - 1) < v);
            }
        }
    }
}

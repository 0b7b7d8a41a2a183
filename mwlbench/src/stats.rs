//! Small measurement helpers: order statistics, timers, process memory and
//! the effective-parallelism probe.

use std::hint::black_box;
use std::time::{Duration, Instant};

use mwl_obs::nearest_rank;

/// Nearest-rank percentile of unsorted samples (`0` for no samples).
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, p)
}

/// Median of unsorted samples (nearest rank, `0` for no samples).
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Lower decile of unsorted samples (nearest rank; the minimum of up to ten
/// samples).
///
/// A shared 2-vCPU container switches, for seconds at a time, between an
/// uncontended state and one where neighbours' memory traffic slows the
/// allocator by about half again (repeated 37 ms passes read 28 ms, then
/// 45 ms, then 28 ms).  Repeated measurements spread over a run are
/// summarised by their lower decile: it estimates the uncontended cost,
/// which is what a change to the program moves, and does not depend on how
/// long the neighbours happened to be busy.
#[must_use]
pub fn lower_decile(samples: &[f64]) -> f64 {
    percentile(samples, 10.0)
}

/// Arithmetic mean (`0` for no samples).
#[must_use]
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `numerator / denominator`, or `0` when the denominator is zero.
#[must_use]
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// Runs `f` and returns its result with the elapsed wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let value = f();
    (value, started.elapsed().as_secs_f64())
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `0` where
/// `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// What the machine offers for parallel work: the reported hardware thread
/// count next to the speed-up a trivially parallel CPU burn achieves on two
/// threads.  Context for every result, not a metric.
#[derive(Debug, Clone, Copy)]
pub struct Parallelism {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Two-thread burn throughput over one-thread burn throughput.
    pub effective: f64,
}

/// A fixed integer-hash burn that the optimizer cannot fold away.
fn burn(rounds: u64) -> u64 {
    let mut x = black_box(0x9E37_79B9_7F4A_7C15_u64);
    for i in 0..rounds {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    black_box(x)
}

/// Measures [`Parallelism`]: the same burn once on one thread and once on
/// each of two threads at the same time.  Takes about a tenth of a second.
#[must_use]
pub fn probe_parallelism() -> Parallelism {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let rounds = 20_000_000;
    burn(rounds / 10);
    let (_, one) = timed(|| burn(rounds));
    let (_, two) = timed(|| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2).map(|_| scope.spawn(|| burn(rounds))).collect();
            for handle in handles {
                handle.join().expect("burn thread panicked");
            }
        });
    });
    Parallelism {
        nproc,
        effective: 2.0 * one / two.max(1e-9),
    }
}

/// Sleeps until `deadline` (returns at once when it has passed).
pub fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
}

/// Seconds as a [`Duration`], clamped at zero.
#[must_use]
pub fn secs(seconds: f64) -> Duration {
    Duration::from_secs_f64(seconds.max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
        assert_eq!(mean(&v), 3.0);
        assert_eq!(lower_decile(&v), 1.0);
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(lower_decile(&twenty), 2.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn rss_is_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}

//! Atomic metric primitives.
//!
//! Everything here is updated with relaxed atomics: recording a sample
//! is wait-free and allocation-free, which is what lets the service
//! keep instrumentation on the request hot path. Reads (for exposition)
//! are racy snapshots, which is fine — scrapes observe a value that was
//! true at *some* point during the scrape.

use crate::registry::HistSnapshot;
use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Bucket layout for a [`Histogram`]: a strictly increasing list of
/// inclusive upper bounds. Samples above the last bound land in the
/// implicit `+Inf` overflow bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Buckets {
    bounds: Vec<u64>,
}

impl Buckets {
    /// Log-scale bounds with `per_octave` buckets per power of two,
    /// spanning `[1, 2^octaves]`. Bounds are rounded up to integers and
    /// deduplicated, so the low end is effectively linear (1, 2, 3, …)
    /// and the high end geometric. This is the layout documented in
    /// DESIGN.md §15; changing it changes the `le` label set and every
    /// golden/bench snapshot downstream.
    pub fn log_scale(per_octave: u32, octaves: u32) -> Self {
        assert!(per_octave >= 1 && octaves >= 1, "degenerate bucket layout");
        let steps = per_octave * octaves;
        let mut bounds = Vec::with_capacity(steps as usize + 1);
        for k in 0..=steps {
            let exact = (f64::from(k) / f64::from(per_octave)).exp2();
            let bound = exact.ceil() as u64;
            if bounds.last() != Some(&bound) {
                bounds.push(bound);
            }
        }
        Self { bounds }
    }

    /// The default layout for microsecond latencies: 4 buckets per
    /// octave from 1µs to 2^26µs (~67s). 89 buckets after dedup.
    pub fn latency_us() -> Self {
        Self::log_scale(4, 26)
    }

    pub fn from_bounds(bounds: Vec<u64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Self { bounds }
    }

    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }
}

/// A fixed-bucket histogram with atomic storage.
///
/// `record` is wait-free: one binary search over the (immutable) bound
/// table plus two relaxed atomic adds. The sample count is the bucket total,
/// so there is no second count to drift from it. Memory is fixed at
/// construction, so a long-lived daemon's latency memory is a constant.
#[derive(Debug)]
pub struct Histogram {
    buckets: Buckets,
    /// Per-bucket counts (non-cumulative); `counts[bounds.len()]` is
    /// the `+Inf` overflow bucket.
    counts: Vec<AtomicU64>,
    sum: AtomicU64,
}

impl Histogram {
    pub fn new(buckets: Buckets) -> Self {
        let n = buckets.bounds.len() + 1;
        let mut counts = Vec::with_capacity(n);
        counts.resize_with(n, AtomicU64::default);
        Self {
            buckets,
            counts,
            sum: AtomicU64::new(0),
        }
    }

    #[inline]
    pub fn record(&self, v: u64) {
        let idx = self.buckets.bounds.partition_point(|&b| b < v);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// The histogram as a scrape reads it. The `+Inf` cumulative is the
    /// count, so `sum(buckets) == count` holds even mid-record.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut count = 0;
        let cumulative = self.counts.iter().map(|c| {
            count += c.load(Ordering::Relaxed);
            count
        });
        HistSnapshot {
            bounds: self.buckets.bounds.clone(),
            cumulative: cumulative.collect(),
            sum: self.sum.load(Ordering::Relaxed),
            count,
        }
    }
}

/// Number of compile pipeline phases the daemon keeps a histogram for.
pub const SPAN_PHASES: usize = 8;

/// Phase names in pipeline order: the `phase` label of the daemon's
/// `rawcc_compile_phase_us` histograms. `parse` covers wire decode + IR
/// verification on the service side; the remaining seven name the
/// compiler's `PhaseTimings::rows`, which take their names from here.
pub const SPAN_PHASE_NAMES: [&str; SPAN_PHASES] = [
    "parse",
    "lower",
    "partition",
    "place",
    "schedule",
    "codegen",
    "regalloc",
    "link",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn log_scale_bounds_are_strictly_increasing() {
        let b = Buckets::latency_us();
        assert!(b.bounds().windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*b.bounds().first().unwrap(), 1);
        assert_eq!(*b.bounds().last().unwrap(), 1 << 26);
        // Dense enough for ~19% worst-case quantization at the top.
        let n = b.bounds().len();
        assert!(n > 80, "unexpectedly coarse layout: {n}");
    }

    #[test]
    fn histogram_conservation() {
        let h = Histogram::new(Buckets::log_scale(4, 10));
        let mut expect_sum = 0u64;
        for v in [0, 1, 2, 3, 100, 999, 1024, 1 << 10, 1 << 20, u64::MAX / 2] {
            h.record(v);
            expect_sum = expect_sum.wrapping_add(v);
        }
        let h = h.snapshot();
        assert_eq!(h.sum, expect_sum);
        assert_eq!(h.cumulative.last(), Some(&h.count));
        assert_eq!(h.count, 10, "every sample lands in exactly one bucket");
        // Two samples exceed 2^10: they must be in the overflow bucket.
        assert_eq!(h.cumulative[h.bounds.len() - 1], 8);
    }

    #[test]
    fn quantiles_are_monotone_and_bracket_samples() {
        let h = Histogram::new(Buckets::latency_us());
        for v in 1..=1000u64 {
            h.record(v);
        }
        let h = h.snapshot();
        let p50 = h.quantile(0.50);
        let p90 = h.quantile(0.90);
        let p99 = h.quantile(0.99);
        assert!(p50 <= p90 && p90 <= p99, "{p50} {p90} {p99}");
        // Nearest-rank on the bucket upper bound never understates.
        assert!((500..=700).contains(&p50), "p50={p50}");
        assert!((990..=1300).contains(&p99), "p99={p99}");
        assert_eq!(h.quantile(0.0), h.quantile(1.0 / 1000.0));
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        let h = Histogram::new(Buckets::latency_us());
        assert_eq!(h.snapshot().quantile(0.99), 0);
    }

    #[test]
    fn overflow_samples_report_last_finite_bound() {
        let h = Histogram::new(Buckets::from_bounds(vec![1, 2, 4]));
        h.record(1_000_000);
        assert_eq!(h.snapshot().quantile(0.5), 4);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_are_rejected() {
        Buckets::from_bounds(vec![1, 3, 2]);
    }
}

//! Hand-rolled HDR-style latency histograms (no crates.io).
//!
//! Fixed log₂-bucketed layout, the scheme HdrHistogram popularized: a
//! value is placed by the position of its highest set bit (the
//! "exponent") and `SUB_BITS` further bits of mantissa, giving a
//! constant relative error of at most `1/2^SUB_BITS` (≈ 3% here) across
//! the full `u64` range — microseconds and minutes share one array.
//! Recording is one `leading_zeros` + one increment; percentile lookup
//! walks the counts once. No allocation after construction and no
//! dependency.
//!
//! Two flavours share the bucket math:
//!
//! * [`LatencyHistogram`] — the owned, read-only form: a snapshot of a
//!   registry histogram, and the currency of quantiles and deltas.
//! * [`AtomicHistogram`] — the shared, lock-free form the metrics
//!   registry hands out: `record(&self, v)` is a relaxed fetch-add into
//!   one of 2048 buckets, and `snapshot()` materializes a
//!   [`LatencyHistogram`] without stopping writers.
//!
//! Values are raw `u64`s; recorders pick the unit and encode it in the
//! metric name (`*_us` histograms store microseconds).

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Mantissa bits per power of two (32 sub-buckets ⇒ ≤ 3.2% error).
const SUB_BITS: u32 = 5;
const SUB_COUNT: usize = 1 << SUB_BITS;
/// Bucket count: 64 exponents × 32 sub-buckets.
const BUCKETS: usize = 64 * SUB_COUNT;

/// Bucket index of `value` (monotone in `value`).
fn index(value: u64) -> usize {
    if value < SUB_COUNT as u64 {
        // Values below one full mantissa resolve exactly.
        return value as usize;
    }
    let exp = 63 - value.leading_zeros();
    let sub = (value >> (exp - SUB_BITS)) as usize & (SUB_COUNT - 1);
    ((exp - SUB_BITS + 1) as usize) * SUB_COUNT + sub
}

/// Representative (upper-edge) value of bucket `i` — what percentile
/// queries report. At most `1/2^SUB_BITS` above any value the bucket
/// holds.
fn value_at(i: usize) -> u64 {
    if i < SUB_COUNT {
        return i as u64;
    }
    let exp = (i / SUB_COUNT) as u32 + SUB_BITS - 1;
    let sub = (i % SUB_COUNT) as u64 | SUB_COUNT as u64;
    // Upper edge: next sub-bucket boundary minus one.
    ((sub + 1) << (exp - SUB_BITS)) - 1
}

/// A fixed-size log-bucketed histogram of `u64` values.
#[derive(Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    max: u64,
    min: u64,
    sum: u128,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub(crate) fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; BUCKETS],
            total: 0,
            max: 0,
            min: u64::MAX,
            sum: 0,
        }
    }

    /// Number of recorded values.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Largest recorded value (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Smallest recorded value (exact; 0 when empty).
    pub(crate) fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Arithmetic mean of recorded values (exact sum / count).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]`: an upper bound within the
    /// bucket resolution (≈3%) of the true order statistic. `q = 0.5`
    /// is the median, `q = 0.99` the p99. Returns 0 on an empty
    /// histogram; `q ≥ 1` returns the exact max.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        // Rank of the order statistic, 1-based, ceil(q·n) clamped to [1, n].
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return value_at(i).min(self.max);
            }
        }
        self.max
    }

    /// The histogram of values recorded *since* `earlier` was taken:
    /// element-wise saturating subtraction of bucket counts, the basis
    /// of registry-snapshot deltas (before/after a workload in one
    /// call). Because exact min/max of the delta window are not
    /// recoverable from two cumulative snapshots, they are
    /// re-approximated from the lowest/highest non-empty delta bucket
    /// (within the ≈3% bucket resolution); quantiles and mean stay as
    /// accurate as any bucketed answer.
    pub(crate) fn delta_since(&self, earlier: &LatencyHistogram) -> LatencyHistogram {
        let mut out = LatencyHistogram::new();
        let mut lo = None;
        let mut hi = 0usize;
        for (i, (a, b)) in self.counts.iter().zip(&earlier.counts).enumerate() {
            let d = a.saturating_sub(*b);
            out.counts[i] = d;
            if d > 0 {
                lo.get_or_insert(i);
                hi = i;
            }
        }
        out.total = self.total.saturating_sub(earlier.total);
        out.sum = self.sum.saturating_sub(earlier.sum);
        if let Some(lo) = lo {
            // Lower edge of the lowest bucket, upper edge of the highest.
            out.min = if lo == 0 { 0 } else { value_at(lo - 1) + 1 };
            out.max = value_at(hi).min(self.max);
        }
        out
    }
}

/// A shared, lock-free histogram: the registry's histogram cell.
///
/// Recording is a handful of relaxed atomic RMWs (bucket increment,
/// running total/sum adds, `fetch_min`/`fetch_max`), so any number of
/// threads record concurrently without coordination. `snapshot()` reads
/// the buckets without stopping writers; under concurrent recording the
/// snapshot is a *consistent-enough* cut — bucket counts are summed as
/// read and the total is derived from them, so quantiles are always
/// self-consistent, while `sum`/`min`/`max` may trail by in-flight
/// records (the usual snapshot-on-read contract).
pub(crate) struct AtomicHistogram {
    counts: Box<[AtomicU64]>,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    /// An empty histogram.
    pub(crate) fn new() -> Self {
        AtomicHistogram {
            counts: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value (lock-free, relaxed ordering).
    pub(crate) fn record(&self, value: u64) {
        self.counts[index(value)].fetch_add(1, Relaxed);
        self.sum.fetch_add(value, Relaxed);
        self.min.fetch_min(value, Relaxed);
        self.max.fetch_max(value, Relaxed);
    }

    /// Materializes an owned [`LatencyHistogram`] without stopping
    /// writers.
    pub(crate) fn snapshot(&self) -> LatencyHistogram {
        let mut out = LatencyHistogram::new();
        let mut total = 0u64;
        for (slot, cell) in out.counts.iter_mut().zip(self.counts.iter()) {
            let c = cell.load(Relaxed);
            *slot = c;
            total += c;
        }
        out.total = total;
        out.sum = self.sum.load(Relaxed) as u128;
        if total > 0 {
            let min = self.min.load(Relaxed);
            out.min = if min == u64::MAX { 0 } else { min };
            out.max = self.max.load(Relaxed);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl LatencyHistogram {
        /// Records one value: the owned form's tests build their
        /// histograms directly, without the atomic cells.
        fn record(&mut self, value: u64) {
            self.counts[index(value)] += 1;
            self.total += 1;
            self.max = self.max.max(value);
            self.min = self.min.min(value);
            self.sum += value as u128;
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        assert_eq!(h.len(), 32);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 31);
        assert_eq!(h.quantile(0.5), 15);
        assert_eq!(h.quantile(1.0), 31);
        assert!((h.mean() - 15.5).abs() < 1e-9);
    }

    #[test]
    fn index_is_monotone_and_value_at_bounds_bucket() {
        let mut prev = 0usize;
        for shift in 0..50u32 {
            for off in [0u64, 1, 3] {
                let v = (1u64 << shift) + off * (1 << shift) / 7;
                let i = index(v);
                assert!(i >= prev, "index not monotone at {v}");
                prev = i;
                let upper = value_at(i);
                assert!(upper >= v, "bucket upper edge {upper} < value {v}");
                // Relative error of the representative is bounded.
                assert!(
                    (upper - v) as f64 <= v as f64 / 16.0 + 1.0,
                    "error too large: {v} -> {upper}"
                );
            }
        }
    }

    #[test]
    fn quantiles_track_a_sorted_oracle_within_resolution() {
        // Deterministic pseudo-random values across 5 decades.
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut vals = Vec::new();
        let mut h = LatencyHistogram::new();
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = x % 10_000_000;
            vals.push(v);
            h.record(v);
        }
        vals.sort_unstable();
        for q in [0.5, 0.9, 0.95, 0.99, 0.999] {
            let rank = ((q * vals.len() as f64).ceil() as usize).clamp(1, vals.len());
            let want = vals[rank - 1] as f64;
            let got = h.quantile(q) as f64;
            assert!(
                got >= want * 0.999 && got <= want * 1.04 + 32.0,
                "q={q}: got {got}, oracle {want}"
            );
        }
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn atomic_matches_owned_recording() {
        let ah = AtomicHistogram::new();
        let mut oh = LatencyHistogram::new();
        let mut x: u64 = 42;
        for _ in 0..5_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = x % 1_000_000;
            ah.record(v);
            oh.record(v);
        }
        let snap = ah.snapshot();
        assert_eq!(snap.len(), oh.len());
        assert_eq!(snap.min(), oh.min());
        assert_eq!(snap.max(), oh.max());
        assert_eq!(snap.mean(), oh.mean());
        for q in [0.5, 0.9, 0.99, 1.0] {
            assert_eq!(snap.quantile(q), oh.quantile(q));
        }
    }

    #[test]
    fn atomic_concurrent_total_is_exact() {
        use std::sync::Arc;
        let ah = Arc::new(AtomicHistogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let ah = Arc::clone(&ah);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        ah.record(t * 1_000 + i % 997);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(ah.snapshot().len(), 40_000);
    }

    #[test]
    fn delta_since_recovers_the_window() {
        let mut before = LatencyHistogram::new();
        for v in [10u64, 100, 1_000] {
            before.record(v);
        }
        let mut after = before.clone();
        for v in [20u64, 200, 2_000, 20_000] {
            after.record(v);
        }
        let d = after.delta_since(&before);
        assert_eq!(d.len(), 4);
        // Bucketed min/max bracket the true window extremes within
        // resolution.
        assert!(d.min() <= 20 && d.max() >= 20_000 / 33 * 32);
        let mut want = LatencyHistogram::new();
        for v in [20u64, 200, 2_000, 20_000] {
            want.record(v);
        }
        // Quantiles of the delta match direct recording (q=1 would
        // report the bucket edge rather than the exact max, so stop at
        // p99).
        for q in [0.25f64, 0.5, 0.75, 0.99] {
            assert_eq!(d.quantile(q), want.quantile(q));
        }
    }
}

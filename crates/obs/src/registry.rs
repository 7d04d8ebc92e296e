//! Process-wide metrics registry: named counters (optionally labeled),
//! gauges and latency histograms with lock-free hot-path recording and
//! snapshot-on-read.
//!
//! # Design
//!
//! The registry is a map from `(name, sorted labels)` to a metric cell;
//! registration (`counter()`, `gauge()`, `histogram()`) takes a mutex
//! once and hands back a cheaply clonable handle ([`Counter`],
//! [`Gauge`], [`Histogram`]) that records without ever touching the map
//! again. Instrumented crates register their handles once in a
//! `OnceLock` catalog and bump them from hot paths, so recording costs:
//!
//! * counter add — one relaxed `fetch_add` into one of 8 cache-padded
//!   shards (writers on different threads don't bounce a shared line),
//! * gauge set — one relaxed store to a single atomic,
//! * histogram record — a bucket increment plus running-stat RMWs
//!   (see [`crate::hist::AtomicHistogram`]).
//!
//! A global recording switch ([`set_recording`]) turns counter,
//! histogram and event recording into a single relaxed load + branch,
//! so one process can run the same instrumented loop with recording on
//! and off. Gauges ignore the switch: they mirror *state* (resident bytes,
//! inflight window), not traffic, and freezing them would make
//! snapshots lie.
//!
//! `snapshot()` walks the map and materializes every cell into plain
//! values ([`RegistrySnapshot`]) without stopping writers; counters sum
//! their shards, histograms copy their buckets. Snapshots subtract
//! ([`RegistrySnapshot::delta_since`]) so before/after deltas around a
//! workload are one call.
//!
//! Metric naming follows Prometheus conventions: `snake_case`,
//! `_total` suffix on counters, unit suffix on histograms (`_us` for
//! microseconds), optional `{key="value"}` labels for same-name counter
//! series.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};

use crate::hist::{AtomicHistogram, LatencyHistogram};

/// Counter shard count — enough to keep a handful of writer threads off
/// each other's cache lines without bloating snapshot reads.
const SHARDS: usize = 8;

/// One cache line per shard so concurrent writers don't false-share.
#[repr(align(64))]
struct PaddedU64(AtomicU64);

/// The sharded cell behind a [`Counter`].
struct ShardedU64 {
    shards: [PaddedU64; SHARDS],
}

impl ShardedU64 {
    fn new() -> Self {
        ShardedU64 {
            shards: std::array::from_fn(|_| PaddedU64(AtomicU64::new(0))),
        }
    }

    fn add(&self, n: u64) {
        self.shards[shard_index()].0.fetch_add(n, Relaxed);
    }

    fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Relaxed))
            .fold(0u64, u64::wrapping_add)
    }
}

/// Round-robin shard assignment, decided once per thread on first use.
fn shard_index() -> usize {
    use std::cell::Cell;
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    SHARD.with(|c| {
        let mut v = c.get();
        if v == usize::MAX {
            v = NEXT.fetch_add(1, Relaxed) % SHARDS;
            c.set(v);
        }
        v
    })
}

/// Global recording switch (counters, histograms, events). On by
/// default; flipping it off reduces every record call to a relaxed
/// load + branch.
static RECORDING: AtomicBool = AtomicBool::new(true);

/// Enables or disables metric/event recording process-wide.
pub fn set_recording(on: bool) {
    RECORDING.store(on, Relaxed);
}

/// True when recording is enabled (the default).
pub(crate) fn recording() -> bool {
    RECORDING.load(Relaxed)
}

/// A monotonically increasing counter handle. Clone freely; all clones
/// share the cell.
#[derive(Clone)]
pub struct Counter(Arc<ShardedU64>);

impl Counter {
    /// Adds `n` (no-op while recording is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if recording() {
            self.0.add(n);
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (sum over shards).
    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

/// A gauge handle: the current value of some state, overwritten by `set`.
/// Not subject to the recording switch (see module docs).
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Relaxed);
    }
}

/// A latency histogram handle (see `AtomicHistogram` for the cell).
#[derive(Clone)]
pub struct Histogram(Arc<AtomicHistogram>);

impl Histogram {
    /// Records one value (no-op while recording is disabled).
    #[inline]
    pub fn record(&self, v: u64) {
        if recording() {
            self.0.record(v);
        }
    }

    /// Records a duration in whole microseconds.
    #[inline]
    pub fn record_duration_us(&self, d: std::time::Duration) {
        self.record(d.as_micros() as u64);
    }

    /// Snapshot of the cell as an owned histogram.
    pub fn snapshot(&self) -> LatencyHistogram {
        self.0.snapshot()
    }
}

enum Cell {
    Counter(Arc<ShardedU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<AtomicHistogram>),
}

impl Cell {
    fn kind(&self) -> &'static str {
        match self {
            Cell::Counter(_) => "counter",
            Cell::Gauge(_) => "gauge",
            Cell::Histogram(_) => "histogram",
        }
    }
}

struct Entry {
    help: &'static str,
    cell: Cell,
}

type Key = (&'static str, Vec<(String, String)>);

/// The metric registry. Most code uses the process-wide [`global()`]
/// instance; tests may build private registries.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<Key, Entry>>,
}

/// The process-wide registry.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Gets or registers an unlabeled counter.
    pub fn counter(&self, name: &'static str, help: &'static str) -> Counter {
        self.counter_with(name, &[], help)
    }

    /// Gets or registers a labeled counter.
    pub fn counter_with(
        &self,
        name: &'static str,
        labels: &[(&str, &str)],
        help: &'static str,
    ) -> Counter {
        self.get_or_register(
            name,
            labels,
            help,
            || Cell::Counter(Arc::new(ShardedU64::new())),
            |cell| match cell {
                Cell::Counter(c) => Some(Counter(Arc::clone(c))),
                _ => None,
            },
        )
    }

    /// Gets or registers an unlabeled gauge.
    pub fn gauge(&self, name: &'static str, help: &'static str) -> Gauge {
        self.get_or_register(
            name,
            &[],
            help,
            || Cell::Gauge(Arc::new(AtomicU64::new(0))),
            |cell| match cell {
                Cell::Gauge(g) => Some(Gauge(Arc::clone(g))),
                _ => None,
            },
        )
    }

    /// Gets or registers an unlabeled histogram.
    pub fn histogram(&self, name: &'static str, help: &'static str) -> Histogram {
        self.get_or_register(
            name,
            &[],
            help,
            || Cell::Histogram(Arc::new(AtomicHistogram::new())),
            |cell| match cell {
                Cell::Histogram(h) => Some(Histogram(Arc::clone(h))),
                _ => None,
            },
        )
    }

    /// The cell under `(name, labels)`, made by `new` on first use, as
    /// `handle` reads it; panics when `name` holds another kind.
    fn get_or_register<T>(
        &self,
        name: &'static str,
        labels: &[(&str, &str)],
        help: &'static str,
        new: fn() -> Cell,
        handle: fn(&Cell) -> Option<T>,
    ) -> T {
        let mut map = self.metrics.lock().unwrap();
        let entry = map
            .entry((name, sorted_labels(labels)))
            .or_insert_with(|| Entry { help, cell: new() });
        handle(&entry.cell).unwrap_or_else(|| {
            panic!(
                "metric `{name}` already registered as {}",
                entry.cell.kind()
            )
        })
    }

    /// Materializes every metric into plain values without stopping
    /// writers. Order is deterministic (name, then labels).
    pub fn snapshot(&self) -> RegistrySnapshot {
        let map = self.metrics.lock().unwrap();
        let metrics = map
            .iter()
            .map(|((name, labels), entry)| MetricSnapshot {
                name: name.to_string(),
                labels: labels.clone(),
                help: entry.help.to_string(),
                value: match &entry.cell {
                    Cell::Counter(c) => MetricValue::Counter(c.get()),
                    Cell::Gauge(g) => MetricValue::Gauge(g.load(Relaxed)),
                    Cell::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                },
            })
            .collect();
        RegistrySnapshot {
            unix_ms: crate::now_unix_ms(),
            metrics,
        }
    }
}

fn sorted_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut v: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    v.sort();
    v
}

/// One metric's snapshot value.
#[derive(Clone)]
pub enum MetricValue {
    /// Monotone counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(u64),
    /// Full histogram copy (mergeable, quantile-queryable).
    Histogram(LatencyHistogram),
}

/// One named metric in a snapshot.
#[derive(Clone)]
pub struct MetricSnapshot {
    /// Metric name (`snake_case`, `_total`/`_us` suffix conventions).
    pub name: String,
    /// Sorted label pairs (empty for unlabeled metrics).
    pub labels: Vec<(String, String)>,
    /// One-line help string from registration.
    pub help: String,
    /// The value at snapshot time.
    pub value: MetricValue,
}

/// A point-in-time copy of the whole registry.
#[derive(Clone)]
pub struct RegistrySnapshot {
    /// Wall-clock capture time (ms since the unix epoch).
    pub unix_ms: u64,
    /// Every metric, deterministically ordered.
    pub metrics: Vec<MetricSnapshot>,
}

impl RegistrySnapshot {
    /// The change since `earlier`: counters and histograms subtract
    /// (saturating — a metric born after `earlier` contributes its full
    /// value), gauges pass through their current value. One call gives
    /// the before/after delta around a workload.
    pub fn delta_since(&self, earlier: &RegistrySnapshot) -> RegistrySnapshot {
        type Key<'a> = (&'a str, &'a [(String, String)]);
        let prior: BTreeMap<Key, &MetricValue> = earlier
            .metrics
            .iter()
            .map(|m| ((m.name.as_str(), m.labels.as_slice()), &m.value))
            .collect();
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let value = match (&m.value, prior.get(&(m.name.as_str(), m.labels.as_slice()))) {
                    (MetricValue::Counter(now), Some(MetricValue::Counter(was))) => {
                        MetricValue::Counter(now.saturating_sub(*was))
                    }
                    (MetricValue::Histogram(now), Some(MetricValue::Histogram(was))) => {
                        MetricValue::Histogram(now.delta_since(was))
                    }
                    (v, _) => v.clone(),
                };
                MetricSnapshot {
                    name: m.name.clone(),
                    labels: m.labels.clone(),
                    help: m.help.clone(),
                    value,
                }
            })
            .collect();
        RegistrySnapshot {
            unix_ms: self.unix_ms,
            metrics,
        }
    }

    /// The value of the counter `name`, summed across label sets
    /// (0 when absent) — the common lookup in tests and gates.
    pub fn counter(&self, name: &str) -> u64 {
        self.metrics
            .iter()
            .filter(|m| m.name == name)
            .map(|m| match &m.value {
                MetricValue::Counter(v) => *v,
                _ => 0,
            })
            .sum()
    }

    /// The value of the gauge `name` (first label set; 0 when absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .and_then(|m| match &m.value {
                MetricValue::Gauge(v) => Some(*v),
                _ => None,
            })
            .unwrap_or(0)
    }

    /// The histogram `name` (first label set), if present.
    pub fn histogram(&self, name: &str) -> Option<&LatencyHistogram> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .and_then(|m| match &m.value {
                MetricValue::Histogram(h) => Some(h),
                _ => None,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_is_shared_across_handles_and_threads() {
        let r = Registry::new();
        let c = r.counter("test_ops_total", "ops");
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // Re-registration returns the same cell.
        assert_eq!(r.counter("test_ops_total", "ops").get(), 80_000);
        assert_eq!(r.snapshot().counter("test_ops_total"), 80_000);
    }

    #[test]
    fn labels_separate_series_and_sum_in_lookup() {
        let r = Registry::new();
        r.counter_with("q_total", &[("kind", "window")], "q").add(3);
        r.counter_with("q_total", &[("kind", "knn")], "q").add(4);
        let snap = r.snapshot();
        assert_eq!(snap.counter("q_total"), 7);
        assert_eq!(snap.metrics.len(), 2);
    }

    #[test]
    fn gauge_set_add_sub_saturates() {
        let r = Registry::new();
        let g = r.gauge("resident_bytes", "bytes");
        g.set(100);
        assert_eq!(r.snapshot().gauge("resident_bytes"), 100);
        g.set(0);
        assert_eq!(r.snapshot().gauge("resident_bytes"), 0);
    }

    #[test]
    fn histogram_snapshot_and_delta() {
        let r = Registry::new();
        let h = r.histogram("lat_us", "latency");
        h.record(10);
        h.record(100);
        let before = r.snapshot();
        h.record(1_000);
        let delta = r.snapshot().delta_since(&before);
        let d = delta.histogram("lat_us").unwrap();
        assert_eq!(d.len(), 1);
        assert!(d.quantile(0.5) >= 1_000);
    }

    #[test]
    fn delta_since_subtracts_counters() {
        let r = Registry::new();
        let c = r.counter("n_total", "n");
        c.add(5);
        let before = r.snapshot();
        c.add(7);
        r.counter("born_later_total", "late").add(2);
        let delta = r.snapshot().delta_since(&before);
        assert_eq!(delta.counter("n_total"), 7);
        // New metric contributes its full value.
        assert_eq!(delta.counter("born_later_total"), 2);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x", "x");
        r.gauge("x", "x");
    }

    // The recording-switch test lives in tests/recording.rs: it flips
    // process-global state, so it needs its own test binary rather than
    // racing the parallel unit tests here.
}

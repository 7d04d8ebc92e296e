//! Process-wide observability for the PR-tree stack.
//!
//! The paper this workspace reproduces (Arge et al., SIGMOD 2004)
//! evaluates everything through I/O and latency accounting; this crate
//! makes that accounting a first-class runtime layer instead of
//! per-crate ad-hoc structs:
//!
//! * [`registry`] — named, labeled counters/gauges/histograms backed by
//!   sharded atomics; lock-free hot-path recording, snapshot-on-read,
//!   one-call before/after deltas ([`RegistrySnapshot::delta_since`]).
//! * [`hist`] — the HDR-style [`LatencyHistogram`] plus its
//!   shared-writer [`AtomicHistogram`] form.
//! * [`mod@events`] — a bounded lifecycle event ring (WAL rotate,
//!   group-commit flush, memtable seal, merge start/commit, compaction,
//!   store commit, scrub) readable without stopping writers.
//! * [`export`] — versioned JSON renderings of snapshots, surfaced by
//!   `prtree stats --json`, `prtree events`, and `--metrics-file`.
//! * [`trace`] — the sampling span tracer: per-operation phase
//!   timelines across all four layers, recorded into a per-thread stack
//!   of open operations ([`OpTrace`]) with one free call per span, a
//!   slowest-N flight recorder, and a Chrome-trace-event exporter
//!   (`prtree query --explain`, `prtree slow`, `ingest --trace-file`).
//! * [`json`] — the workspace's single hand-rolled JSON encoder.
//!
//! Every other crate records into the process-wide [`global()`]
//! registry and [`events()`] ring through handles cached in a
//! `OnceLock` catalog (see e.g. `pr_em::obs`). Existing public stats
//! types (`IoStats`, `QueryStats`, `LiveStats`) remain thin views:
//! exact per-instance or per-call numbers, while the registry holds the
//! process-wide running totals.

#![forbid(unsafe_code)]

pub mod events;
pub mod export;
pub mod hist;
pub mod json;
pub mod registry;
pub mod trace;

pub use events::{Event, EventLog, EventRing};
pub use export::{event_json, metric_json, snapshot_json, SCHEMA_VERSION};
pub use hist::{AtomicHistogram, LatencyHistogram};
pub use registry::{
    global, recording, set_recording, Counter, Gauge, Histogram, MetricSnapshot, MetricValue,
    Registry, RegistrySnapshot,
};
pub use trace::{
    chrome_trace_json, recorder, slow_traces_json, trace_json, FlightRecorder, LevelCounters,
    OpTrace, Span, Trace,
};

/// The process-wide lifecycle event ring.
pub fn events() -> &'static EventRing {
    events::global()
}

/// Wall-clock milliseconds since the unix epoch (0 if the clock is
/// before the epoch).
pub fn now_unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

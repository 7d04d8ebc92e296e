//! Exporters: JSON renderings of a [`RegistrySnapshot`] and an
//! [`EventLog`].
//!
//! They consume *snapshots*, never live cells, so exporting is pure
//! formatting: take the snapshot once, render it as often as needed.
//! The JSON shape is versioned ([`SCHEMA_VERSION`]) — CI's
//! metrics-roundtrip job parses it and asserts the key metrics of all
//! four instrumented layers are present and account exactly for the
//! run's acknowledged writes.

use crate::events::EventLog;
use crate::hist::LatencyHistogram;
use crate::json::{JsonArr, JsonObj};
use crate::registry::{MetricSnapshot, MetricValue, RegistrySnapshot};

/// Version stamp of every JSON document built with this crate's
/// encoder (snapshots, `pr_bench::table` output). Bump on breaking
/// shape changes.
pub const SCHEMA_VERSION: u64 = 1;

fn histogram_json(h: &LatencyHistogram) -> String {
    let mut o = JsonObj::new();
    o.u64("count", h.len())
        .u64("min", h.min())
        .u64("max", h.max())
        .f64p("mean", h.mean(), 1)
        .u64("p50", h.quantile(0.5))
        .u64("p90", h.quantile(0.9))
        .u64("p99", h.quantile(0.99));
    o.finish()
}

/// One metric as a JSON object (`{"name":..,"type":..,"value":..}` or
/// a histogram summary).
pub(crate) fn metric_json(m: &MetricSnapshot) -> String {
    let mut o = JsonObj::new();
    o.str("name", &m.name);
    if !m.labels.is_empty() {
        let mut lo = JsonObj::new();
        for (k, v) in &m.labels {
            lo.str(k, v);
        }
        o.raw("labels", &lo.finish());
    }
    match &m.value {
        MetricValue::Counter(v) => o.str("type", "counter").u64("value", *v),
        MetricValue::Gauge(v) => o.str("type", "gauge").u64("value", *v),
        MetricValue::Histogram(h) => o.str("type", "histogram").raw("value", &histogram_json(h)),
    };
    o.finish()
}

/// One event as a JSON object.
pub fn event_json(e: &crate::events::Event) -> String {
    let mut o = JsonObj::new();
    o.u64("seq", e.seq)
        .u64("unix_ms", e.unix_ms)
        .str("kind", e.kind)
        .str("detail", &e.detail);
    if let Some(d) = e.duration_us {
        o.u64("duration_us", d);
    }
    o.finish()
}

/// The full observability document: schema version, capture time, every
/// metric, the event log and the flight recorder's slowest-per-kind
/// digest under `slow_traces` (rendered via
/// [`crate::trace::slow_traces_json`]). This is what
/// `prtree stats --json` and `--metrics-file` emit.
pub fn snapshot_json(
    snap: &RegistrySnapshot,
    log: &EventLog,
    slow_traces: &[(&'static str, Vec<crate::trace::Trace>)],
) -> String {
    let mut metrics = JsonArr::new();
    for m in &snap.metrics {
        metrics.push_raw(metric_json(m));
    }
    let mut o = JsonObj::new();
    o.u64("schema_version", SCHEMA_VERSION)
        .u64("unix_ms", snap.unix_ms)
        .raw("metrics", &metrics.finish_pretty());
    let mut ev = JsonArr::new();
    for e in &log.events {
        ev.push_raw(event_json(e));
    }
    o.raw("events", &ev.finish_pretty())
        .u64("events_dropped", log.dropped)
        .raw("slow_traces", &crate::trace::slow_traces_json(slow_traces));
    o.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventRing;
    use crate::registry::Registry;

    fn sample() -> Registry {
        let r = Registry::new();
        r.counter("em_device_reads_total", "device block reads")
            .add(7);
        r.counter_with("tree_queries_total", &[("kind", "window")], "queries")
            .add(3);
        r.gauge("live_memtable_items", "items buffered").set(42);
        let h = r.histogram("live_wal_fsync_us", "fsync latency");
        h.record(100);
        h.record(200);
        r
    }

    #[test]
    fn snapshot_json_is_versioned_and_complete() {
        let reg = sample();
        let ring = EventRing::new(8);
        ring.emit("merge_commit", "cut_seq=10");
        let doc = snapshot_json(&reg.snapshot(), &ring.snapshot(), &[]);
        assert!(doc.contains("\"schema_version\":1"));
        assert!(doc.contains("\"name\":\"em_device_reads_total\",\"type\":\"counter\",\"value\":7"));
        assert!(doc.contains("\"labels\":{\"kind\":\"window\"}"));
        assert!(doc.contains("\"type\":\"gauge\",\"value\":42"));
        assert!(doc.contains("\"p50\":"));
        assert!(doc.contains("\"kind\":\"merge_commit\""));
        assert!(doc.contains("\"events_dropped\":0"));
        assert!(doc.contains("\"slow_traces\":[]"));
        let slow = vec![(
            "window",
            vec![crate::trace::Trace {
                kind: "window",
                unix_ms: 5,
                total_us: 99,
                detail: String::new(),
                spans: Vec::new(),
                levels: Vec::new(),
            }],
        )];
        let full = snapshot_json(&reg.snapshot(), &ring.snapshot(), &slow);
        assert!(full.contains("\"slow_traces\":[{\"kind\":\"window\""));
        assert!(full.contains("\"total_us\":99"));
    }
}

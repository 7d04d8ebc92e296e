//! Exporters: Prometheus-style text and JSON renderings of a
//! [`RegistrySnapshot`] and an [`EventLog`].
//!
//! Both exporters consume *snapshots*, never live cells, so exporting
//! is pure formatting: take the snapshot once, render it as many ways
//! as needed. The JSON shape is versioned ([`SCHEMA_VERSION`]) — CI's
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

/// Quantiles reported for histograms in both exporters.
const QUANTILES: [(f64, &str); 4] = [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99"), (1.0, "1")];

fn prom_series(name: &str, labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{v}\""));
    }
    if pairs.is_empty() {
        name.to_string()
    } else {
        format!("{name}{{{}}}", pairs.join(","))
    }
}

/// Renders a snapshot in the Prometheus text exposition format.
/// Histograms are rendered as summaries (`_count`, `_sum`, quantile
/// series) since the buckets are log-spaced, not cumulative-le.
pub fn prometheus_text(snap: &RegistrySnapshot) -> String {
    let mut out = String::new();
    let mut last_name = "";
    for m in &snap.metrics {
        if m.name != last_name {
            out.push_str(&format!("# HELP {} {}\n", m.name, m.help));
            let kind = match &m.value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Histogram(_) => "summary",
            };
            out.push_str(&format!("# TYPE {} {}\n", m.name, kind));
            last_name = &m.name;
        }
        match &m.value {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                out.push_str(&format!("{} {v}\n", prom_series(&m.name, &m.labels, None)));
            }
            MetricValue::Histogram(h) => {
                for (q, qs) in QUANTILES {
                    out.push_str(&format!(
                        "{} {}\n",
                        prom_series(&m.name, &m.labels, Some(("quantile", qs))),
                        h.quantile(q)
                    ));
                }
                out.push_str(&format!(
                    "{}_sum {}\n",
                    prom_series(&m.name, &m.labels, None),
                    (h.mean() * h.len() as f64) as u64
                ));
                out.push_str(&format!(
                    "{}_count {}\n",
                    prom_series(&m.name, &m.labels, None),
                    h.len()
                ));
            }
        }
    }
    out
}

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
pub fn metric_json(m: &MetricSnapshot) -> String {
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
/// metric, and (optionally) the event log. This is what
/// `prtree stats --json` and `--metrics-file` emit.
pub fn snapshot_json(snap: &RegistrySnapshot, events: Option<&EventLog>) -> String {
    snapshot_json_full(snap, events, None)
}

/// [`snapshot_json`] plus an optional `slow_traces` section — the
/// flight recorder's slowest-per-kind digest, rendered via
/// [`crate::trace::slow_traces_json`]. `prtree stats --json` passes
/// the live recorder snapshot here.
pub fn snapshot_json_full(
    snap: &RegistrySnapshot,
    events: Option<&EventLog>,
    slow_traces: Option<&[(&'static str, Vec<crate::trace::Trace>)]>,
) -> String {
    let mut metrics = JsonArr::new();
    for m in &snap.metrics {
        metrics.push_raw(metric_json(m));
    }
    let mut o = JsonObj::new();
    o.u64("schema_version", SCHEMA_VERSION)
        .u64("unix_ms", snap.unix_ms)
        .raw("metrics", &metrics.finish_pretty());
    if let Some(log) = events {
        let mut ev = JsonArr::new();
        for e in &log.events {
            ev.push_raw(event_json(e));
        }
        o.raw("events", &ev.finish_pretty())
            .u64("events_dropped", log.dropped);
    }
    if let Some(groups) = slow_traces {
        o.raw("slow_traces", &crate::trace::slow_traces_json(groups));
    }
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
    fn prometheus_text_has_help_type_and_series() {
        let text = prometheus_text(&sample().snapshot());
        assert!(text.contains("# HELP em_device_reads_total device block reads"));
        assert!(text.contains("# TYPE em_device_reads_total counter"));
        assert!(text.contains("em_device_reads_total 7"));
        assert!(text.contains("tree_queries_total{kind=\"window\"} 3"));
        assert!(text.contains("# TYPE live_memtable_items gauge"));
        assert!(text.contains("live_wal_fsync_us{quantile=\"0.5\"}"));
        assert!(text.contains("live_wal_fsync_us_count 2"));
    }

    #[test]
    fn snapshot_json_is_versioned_and_complete() {
        let reg = sample();
        let ring = EventRing::new(8);
        ring.emit("merge_commit", "cut_seq=10");
        let doc = snapshot_json(&reg.snapshot(), Some(&ring.snapshot()));
        assert!(doc.contains("\"schema_version\":1"));
        assert!(doc.contains("\"name\":\"em_device_reads_total\",\"type\":\"counter\",\"value\":7"));
        assert!(doc.contains("\"labels\":{\"kind\":\"window\"}"));
        assert!(doc.contains("\"type\":\"gauge\",\"value\":42"));
        assert!(doc.contains("\"p50\":"));
        assert!(doc.contains("\"kind\":\"merge_commit\""));
        assert!(doc.contains("\"events_dropped\":0"));
        // The 2-arg form carries no slow_traces section; the full form
        // includes the flight-recorder digest.
        assert!(!doc.contains("\"slow_traces\""));
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
        let full = snapshot_json_full(&reg.snapshot(), None, Some(&slow));
        assert!(full.contains("\"slow_traces\":[{\"kind\":\"window\""));
        assert!(full.contains("\"total_us\":99"));
    }
}

use crate::opts::Opts;
use std::io::{self, Write};
use std::path::Path;

/// Touches every layer's metric catalog so a registry snapshot always
/// carries the full key set, even for counters still at zero — CI
/// parses `stats --json` and asserts on key presence.
pub(crate) fn init_obs() {
    pr_em::obs::metrics();
    pr_tree::obs::metrics();
    pr_store::obs::metrics();
    pr_live::obs::metrics();
}

/// The one stats formatter both the store-file and live-dir paths end
/// with: the process-wide registry, as human-readable lines or as the
/// versioned JSON document (with the lifecycle event ring). `extra`
/// holds further top-level fields (raw `"key":value,...` JSON, no
/// braces) spliced into the document — how `stats --json` on a live
/// dir carries the index summary and the per-run layout.
pub(crate) fn report_registry(
    out: &mut dyn Write,
    json: bool,
    extra: Option<String>,
) -> io::Result<()> {
    if !json {
        return print_metrics_human(out, &pr_obs::global().snapshot());
    }
    let mut doc = registry_json();
    if let Some(extra) = extra {
        assert!(doc.ends_with('}'));
        doc.truncate(doc.len() - 1);
        doc.push(',');
        doc.push_str(&extra);
        doc.push('}');
    }
    writeln!(out, "{doc}")
}

fn print_metrics_human(out: &mut dyn Write, snap: &pr_obs::RegistrySnapshot) -> io::Result<()> {
    writeln!(out, "metrics (process-wide registry):")?;
    for m in &snap.metrics {
        let name = if m.labels.is_empty() {
            m.name.clone()
        } else {
            let labels: Vec<String> = m.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
            format!("{}{{{}}}", m.name, labels.join(","))
        };
        match &m.value {
            pr_obs::MetricValue::Counter(v) | pr_obs::MetricValue::Gauge(v) => {
                writeln!(out, "  {name:<44} {v}")?;
            }
            pr_obs::MetricValue::Histogram(h) if h.is_empty() => {
                writeln!(out, "  {name:<44} count=0")?;
            }
            pr_obs::MetricValue::Histogram(h) => {
                writeln!(
                    out,
                    "  {name:<44} count={} p50={} p99={} max={}",
                    h.len(),
                    h.quantile(0.5),
                    h.quantile(0.99),
                    h.max()
                )?;
            }
        }
    }
    Ok(())
}

/// Writes `doc` to `path` atomically (temp file + rename), so a reader
/// never sees a torn document.
pub(crate) fn write_atomic(path: &Path, doc: String) -> Result<(), String> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, doc)
        .and_then(|()| std::fs::rename(&tmp, path))
        .map_err(|e| format!("could not write {}: {e}", path.display()))
}

/// The registry snapshot, the event ring and the flight recorder as one
/// JSON document: what `stats --json` prints and `--metrics-file` writes.
fn registry_json() -> String {
    pr_obs::snapshot_json(
        &pr_obs::global().snapshot(),
        &pr_obs::events().snapshot(),
        &pr_obs::recorder().snapshot(),
    )
}

pub(crate) fn write_metrics_file(path: &Path) -> Result<(), String> {
    write_atomic(path, registry_json())
}

/// Applies `--trace-sample` (default `every`; 0 = off) and
/// `--trace-slow-us`. The sampler and the flight recorder are
/// process-global statics, not index state: set them before the index
/// opens and can arm a trace.
pub(crate) fn arm_tracing(opts: &Opts, every: u64) -> Result<(), String> {
    pr_obs::trace::set_sampling(opts.num("trace-sample", every)?);
    pr_obs::recorder().configure(opts.num("trace-slow-us", 0)?);
    Ok(())
}

//! Turns a finished run's samples into the catalog's metrics and prints
//! them: the noise evidence, every metric by name with its unit, the
//! ops ledger, and — last line — the contract's result object.

use crate::catalog::{self, Better, MetricDef};
use crate::ctx::Ctx;
use crate::host;
use crate::spans::{Layer, Ledger, Tracer};
use pr_obs::json::JsonObj;
use pr_obs::RegistrySnapshot;

/// End-to-end values: a total a workload set under the metric's own
/// name wins; otherwise the series of that name — one value per
/// repetition of identical work — read at its quiet decile
/// ([`crate::stats::quiet_decile`]). `setup_s` has three samples and is
/// their median.
fn end_to_end(ctx: &mut Ctx) {
    ctx.set(
        "window_leaf_io",
        ctx.ratio("window_leaves", "window_queries"),
    );
    ctx.set("setup_s", ctx.median("setup_s"));
    for m in &catalog::END_TO_END {
        if ctx.total(m.name) == 0.0 {
            ctx.set(m.name, ctx.quiet(m.name, m.better == Better::Higher));
        }
    }
}

/// `Σ value / Σ seconds` over the program spans called `name` whose
/// detail carries `key=<n>` (`bulk_load items=…`, `replay records=…`).
fn rate_from_details(tracer: &Tracer, name: &str, key: &str) -> f64 {
    let (mut units, mut ns) = (0.0, 0.0);
    for s in tracer.spans().iter().filter(|s| s.name == name) {
        let value = s.detail.as_deref().and_then(|d| {
            d.split_whitespace()
                .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
                .and_then(|v| v.parse::<f64>().ok())
        });
        if let Some(v) = value {
            units += v;
            ns += (s.end_ns - s.start_ns) as f64;
        }
    }
    // Program spans are µs-granular: under a millisecond in total the
    // quotient is rounding, not a rate.
    if ns < 1e6 {
        0.0
    } else {
        units / (ns / 1e9)
    }
}

/// Per-layer values from the registry delta over the measured phase,
/// the run's traversal totals, and the span ledger. Probes have already
/// set theirs by name.
fn per_layer(ctx: &mut Ctx, reg: &RegistrySnapshot, ledger: &Ledger) {
    let c = |name: &str| reg.counter(name) as f64;
    let rate = |hit: f64, miss: f64| {
        if hit + miss == 0.0 {
            0.0
        } else {
            hit / (hit + miss)
        }
    };
    ctx.set("em.device_reads", c("em_device_reads_total"));
    ctx.set("em.device_writes", c("em_device_writes_total"));
    ctx.set("em.device_fsyncs", c("em_device_fsyncs_total"));
    ctx.set(
        "tree.node_cache_hit_rate",
        rate(
            c("tree_node_cache_hits_total"),
            c("tree_node_cache_misses_total"),
        ),
    );
    ctx.set(
        "tree.leaf_cache_hit_rate",
        rate(
            c("tree_leaf_cache_hits_total"),
            c("tree_leaf_cache_misses_total"),
        ),
    );
    ctx.set(
        "tree.leaf_cache_resident_mb",
        reg.gauge("tree_leaf_cache_resident_bytes") as f64 / (1 << 20) as f64,
    );
    ctx.set(
        "tree.window_ns_per_leaf",
        ctx.ratio("window_ns", "window_leaves"),
    );
    ctx.set(
        "tree.internal_nodes_per_query",
        ctx.ratio("window_internal", "window_queries"),
    );
    ctx.set(
        "tree.window_rel_io",
        ctx.ratio("window_rel_sum", "window_rel_n"),
    );
    ctx.set("tree.knn_leaf_io", ctx.ratio("knn_leaves", "knn_queries"));

    ctx.set("store.commits", c("store_commits_total"));
    ctx.set("store.pages_written", c("store_pages_written_total"));
    ctx.set("store.pages_reused", c("store_pages_reused_total"));
    let hist = |name: &str, q: f64| {
        reg.histogram(name)
            .filter(|h| !h.is_empty())
            .map_or(0.0, |h| h.quantile(q) as f64)
    };
    ctx.set("store.commit_p50_us", hist("store_commit_us", 0.5));

    let acked = c("live_inserts_acked_total") + c("live_deletes_acked_total");
    if acked > 0.0 {
        ctx.set("live.wal_bytes_per_item", c("live_wal_bytes_total") / acked);
    }
    if ctx.total("write_calls") > 0.0 {
        ctx.set(
            "live.wal_fsyncs_per_batch",
            c("live_wal_fsyncs_total") / ctx.total("write_calls"),
        );
    }
    ctx.set("live.wal_fsync_p50_us", hist("live_wal_fsync_us", 0.5));
    ctx.set("live.merges", c("live_merges_total"));
    ctx.set("live.seals", c("live_memtable_seals_total"));
    if let Some(h) = reg.histogram("live_merge_us").filter(|h| !h.is_empty()) {
        ctx.set("live.merge_busy_s", h.mean() * h.len() as f64 / 1e6);
        ctx.set("live.merge_p99_ms", h.quantile(0.99) as f64 / 1e3);
    }
    ctx.set("live.snapshot_ns", ctx.median("snapshot_ns"));
    let comps = ctx.series("components");
    if !comps.is_empty() {
        ctx.set(
            "live.components_mean",
            comps.iter().sum::<f64>() / comps.len() as f64,
        );
    }
    ctx.set("live.compact_s", ctx.median("compact_s"));
    ctx.set("live.insert_items_per_s", ctx.median("insert_items_per_s"));
    ctx.set("live.churn_items_per_s", ctx.median("churn_items_per_s"));

    let tracer = ctx.tracer.as_ref().expect("traced run");
    let replay = rate_from_details(tracer, "replay", "records");
    let merge_bulk = rate_from_details(tracer, "bulk_load", "items");
    ctx.set("live.replay_records_per_s", replay);
    if ctx.total("tree.bulk_pr_mem_items_per_s") == 0.0 {
        ctx.set("tree.bulk_pr_mem_items_per_s", merge_bulk);
    }

    for layer in Layer::ALL {
        let name: &'static str = match layer {
            Layer::Live => "live.self_s",
            Layer::Store => "store.self_s",
            Layer::Tree => "tree.self_s",
            Layer::Em => "em.self_s",
            Layer::Driver => "driver.self_s",
        };
        ctx.set(name, ledger.layer_self_s(layer));
    }
    // The tails that could not meet an end-to-end bound on this host:
    // per pass / per round p99s, median over the run.
    ctx.set("tail.window_p99_us", ctx.median("window_p99_us"));
    ctx.set("tail.knn_p99_us", ctx.median("knn_p99_us"));
    ctx.set(
        "tail.ingest_batch_p99_us",
        ctx.median("ingest_batch_p99_us"),
    );
    ctx.set("obs.traced_wall_s", ledger.wall_s);
    ctx.set("obs.ledger_sum_over_wall", ledger.sum_s() / ledger.wall_s);
    let reference = ctx.median("round_ref_s");
    if reference > 0.0 {
        ctx.set(
            "obs.trace_overhead_pct",
            (ctx.median("round_s") / reference - 1.0) * 100.0,
        );
    }
}

fn print_ledger(ledger: &Ledger) {
    println!("  ledger: wall {:.3} s", ledger.wall_s);
    for layer in Layer::ALL {
        let s = ledger.layer_self_s(layer);
        println!(
            "    {:<8} self {:>9.3} s  {:>5.1} %",
            layer.name(),
            s,
            100.0 * s / ledger.wall_s
        );
    }
    println!("  largest span names (durations overlap where nested):");
    for (layer, name, count, secs) in ledger.by_name.iter().take(14) {
        println!(
            "    {:<8} {:<22} n={:<8} {:>9.3} s",
            layer.name(),
            name,
            count,
            secs
        );
    }
}

fn metrics_json(ctx: &Ctx, defs: &[MetricDef]) -> String {
    let mut o = JsonObj::new();
    for m in defs {
        let mut v = JsonObj::new();
        v.f64("value", ctx.total(m.name)).str("unit", m.unit);
        o.raw(m.name, &v.finish());
    }
    o.finish()
}

/// Finalizes and prints the run. Must be the last thing the run does:
/// the result object is the last stdout line.
pub fn print(ctx: &mut Ctx) {
    let defs: &[MetricDef] = if ctx.cfg.trace {
        let reg = ctx
            .measured()
            .unwrap_or_else(|| pr_obs::global().snapshot());
        let mut tracer = ctx.tracer.take().expect("traced run");
        let ledger = tracer.finish();
        ctx.tracer = Some(tracer);
        per_layer(ctx, &reg, &ledger);
        print_ledger(&ledger);
        host::write_out(
            &format!("{}.trace.json", ctx.cfg.workload),
            &ctx.tracer.as_ref().expect("kept").chrome_json(),
        );
        &catalog::PER_LAYER
    } else {
        end_to_end(ctx);
        &catalog::END_TO_END
    };
    ctx.print_series();
    for m in defs {
        println!("  {:<34} {:>18.4} {}", m.name, ctx.total(m.name), m.unit);
    }
    println!(
        "  ops_attempted {}  ops_failed {}  wall {:.1} s",
        ctx.attempted,
        ctx.failed,
        ctx.elapsed_s()
    );
    let mut o = JsonObj::new();
    o.bool("correct", ctx.failed == 0)
        .u64("attempted", ctx.attempted.max(1))
        .u64("failed", ctx.failed)
        .raw("metrics", &metrics_json(ctx, defs));
    println!("{}", o.finish());
}

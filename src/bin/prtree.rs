//! `prtree` — command-line face of the persistent PR-tree.
//!
//! ```text
//! prtree build --out index.prt --data tiger-east --n 100000 --loader PR
//! prtree query index.prt --window 0.2,0.2,0.4,0.4
//! prtree knn   index.prt --point 0.5,0.5 --k 10
//! prtree stats index.prt
//!
//! prtree ingest  live-dir --data uniform --n 100000       # durable writes
//! prtree delete  live-dir --window 0.2,0.2,0.4,0.4
//! prtree compact live-dir
//! prtree query   live-dir --window 0,0,1,1                # works on both
//! ```
//!
//! `build` bulk-loads one of the paper's dataset families in memory and
//! commits it to a store file; `query`/`knn` reopen the index (checksum-
//! verified reads) and report results plus exact I/O statistics; `stats`
//! dumps the superblock and scrubs every page. A **directory** argument
//! is treated as a `pr-live` index (WAL + memtable + components):
//! `ingest` appends durably (every batch fsynced before it is
//! acknowledged — kill the process anywhere and re-run `query`),
//! `delete` removes by window, `compact` merges everything into one
//! component and rewrites the store file. Everything is 2-D, the paper's
//! experimental setting.

use pr_data::{size_dataset, uniform_points, TigerProfile};
use pr_em::{BlockDevice, MemDevice};
use pr_geom::{Item, Point, Rect};
use pr_live::{Durability, LiveIndex, LiveOptions};
use pr_store::{ReadPath, Store};
use pr_tree::bulk::LoaderKind;
use pr_tree::{QueryScratch, RTree, TreeParams};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    init_obs();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("build") => cmd_build(&args[1..]),
        Some("ingest") => cmd_ingest(&args[1..]),
        Some("delete") => cmd_delete(&args[1..]),
        Some("compact") => cmd_compact(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("knn") => cmd_knn(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("events") => cmd_events(&args[1..]),
        Some("slow") => cmd_slow(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("torture") => cmd_torture(&args[1..]),
        Some("--help") | Some("-h") | None => {
            usage();
            0
        }
        Some(other) => {
            eprintln!("error: unknown command '{other}'");
            usage();
            2
        }
    };
    std::process::exit(code);
}

fn usage() {
    eprintln!(
        "usage: prtree <command> [options]\n\
         \n\
         commands:\n\
         \x20 build --out FILE [--data KIND] [--n N] [--seed S] [--loader L] [--cap C]\n\
         \x20       build a synthetic index and commit it to FILE\n\
         \x20       KIND: uniform | size | tiger-east | tiger-west   (default uniform)\n\
         \x20       L:    PR | H | H4 | TGS | STR                    (default PR)\n\
         \x20       C:    entries per node (default: the paper's 113 / 4KB pages)\n\
         \x20 ingest DIR [--data KIND] [--n N] [--seed S] [--id-base B] [--batch SIZE]\n\
         \x20        [--writers W] [--durability fsync|async|async:BYTES]\n\
         \x20        [--buffer-cap C] [--cap C] [--inline-merge]\n\
         \x20        [--flush] [--metrics-file FILE] [--trace-file FILE]\n\
         \x20       durably insert N synthetic items into the live index at DIR\n\
         \x20       (created on first use). --writers W shards the stream over W\n\
         \x20       threads whose batches coalesce into shared group-commit\n\
         \x20       fsyncs; --durability picks the ack point: fsync (default —\n\
         \x20       acked writes are on disk) or async[:BYTES] (ack after the\n\
         \x20       buffered append; a syncer thread fsyncs behind a window of\n\
         \x20       at most BYTES unsynced WAL bytes, default 8 MiB);\n\
         \x20       --id-base offsets ids so successive ingests\n\
         \x20       stay unique; --flush forces a merge commit before exiting;\n\
         \x20       --metrics-file FILE periodically flushes the metrics registry\n\
         \x20       to FILE as JSON (atomic rename; final flush on exit);\n\
         \x20       --trace-file FILE traces every operation and writes the run's\n\
         \x20       span traces to FILE as Chrome trace-event JSON on exit (open\n\
         \x20       in about://tracing or Perfetto);\n\
         \x20       --inline-merge runs merges on the writer instead of the\n\
         \x20       background thread. Every live-dir command accepts\n\
         \x20       --trace-sample N (span-trace 1 op in N; 0 = off, the default)\n\
         \x20       and --trace-slow-us U (flight-recorder admission threshold)\n\
         \x20 delete DIR --window X1,Y1,X2,Y2 [--limit N]\n\
         \x20       durably delete (up to N) live items intersecting the window\n\
         \x20 compact DIR [--max-garbage-pct P]\n\
         \x20       merge memtable + all components into one tree, drop all\n\
         \x20       tombstones, and rewrite the store file (reclaims the garbage\n\
         \x20       incremental merge commits leave behind). --max-garbage-pct P\n\
         \x20       makes it conditional: rewrite only when garbage exceeds P%\n\
         \x20       of the file, otherwise keep the incremental layout (exit 0,\n\
         \x20       \"skipped\")\n\
         \x20 query FILE|DIR --window X1,Y1,X2,Y2 [--expect N] [--verbose] [--repeat R]\n\
         \x20       [--paranoid] [--explain]\n\
         \x20       reopen the index and run one window query (--expect N: exit 1\n\
         \x20       unless exactly N results — used by CI roundtrips; --repeat R:\n\
         \x20       rerun the query R times through one reused scratch and report\n\
         \x20       warm-cache throughput of the decode-free engine;\n\
         \x20       --explain: trace the traversal and print a per-level profile\n\
         \x20       of nodes/leaves/internal/device-reads plus phase timings,\n\
         \x20       cross-checked exactly against the query's own statistics —\n\
         \x20       exit 1 on any mismatch)\n\
         \x20 knn FILE|DIR --point X,Y [--k K] [--paranoid] [--explain]\n\
         \x20       reopen the index and report the K nearest rectangles (default K=5).\n\
         \x20       query/knn/stats accept --paranoid: re-hash every store page on\n\
         \x20       every read (CRC rechecked each touch) instead of verify-once\n\
         \x20 stats FILE|DIR [--no-verify] [--paranoid] [--json]\n\
         \x20       store file: dump the superblock, eagerly scrub every page CRC\n\
         \x20       through the verify-once bitmap (reporting verified/total), report\n\
         \x20       tree shape (--no-verify stops after the superblock dump).\n\
         \x20       Live dir: WAL/memtable/component/tombstone/degraded-mode state,\n\
         \x20       plus a full store scrub (nonzero exit on any corrupt page;\n\
         \x20       --no-verify skips it). Both paths end with the process-wide\n\
         \x20       metrics registry (one formatter). --json emits the registry\n\
         \x20       snapshot + lifecycle events + the slow-op flight recorder as\n\
         \x20       one JSON document; live dirs add an \"index\" summary (write\n\
         \x20       amp, garbage, arena allocs) and the per-run \"store_runs\"\n\
         \x20       layout (stable id + byte offset + pages — unchanged pairs\n\
         \x20       across commits prove in-place page reuse)\n\
         \x20 events DIR [--limit N] [--since SEQ] [--json]\n\
         \x20       replay the lifecycle event ring after opening the live index\n\
         \x20       (open + WAL replay) — WAL rotations, group flushes, seals,\n\
         \x20       merges, compactions, scrubs. --since SEQ tails\n\
         \x20       only events with seq > SEQ (incremental polling; the report's\n\
         \x20       dropped count covers the gap). Store files have no event\n\
         \x20       history: a file path is an error\n\
         \x20 slow DIR|FILE [--limit N] [--json]\n\
         \x20       trace every operation of the open (live dir: WAL replay;\n\
         \x20       store file: open + scrub) and dump the slow-op flight\n\
         \x20       recorder: the N slowest traces per op-kind, slowest first\n\
         \x20       (admission threshold via --trace-slow-us)\n\
         \x20 trace DIR [--out FILE]\n\
         \x20       trace every operation of open + flush on the live index and\n\
         \x20       export the collected span traces as Chrome trace-event JSON\n\
         \x20       to FILE (default stdout) — open in about://tracing or Perfetto\n\
         \x20 torture [DIR] [--seed S] [--batches B] [--batch SIZE] [--writers W]\n\
         \x20        [--durability fsync|async|async:BYTES] [--stride K]\n\
         \x20       fault-injection torture sweep: run a scripted ingest trace once\n\
         \x20       to count its I/O ops, then re-run it once per op with exactly\n\
         \x20       that op failing (EIO / ENOSPC / torn write / EINTR, cycling),\n\
         \x20       reopening after each run and verifying the acked-prefix\n\
         \x20       invariant. --stride K sweeps every Kth op; --writers W > 1\n\
         \x20       switches to the concurrent insert-only variant. Exits 0 only\n\
         \x20       if every run recovers exactly the acknowledged operations"
    );
}

/// Touches every layer's metric catalog so a registry snapshot always
/// carries the full key set, even for counters still at zero — CI
/// parses `stats --json` and asserts on key presence.
fn init_obs() {
    pr_em::obs::metrics();
    pr_tree::obs::metrics();
    pr_store::obs::metrics();
    pr_live::obs::metrics();
}

/// The one stats formatter both the store-file and live-dir paths end
/// with: the process-wide registry, as human-readable lines or as the
/// versioned JSON document (with the lifecycle event ring).
fn report_registry(json: bool) -> i32 {
    report_registry_extra(json, None)
}

/// Like [`report_registry`], with optional extra top-level fields
/// (raw `"key":value,...` JSON, no braces) spliced into the document —
/// how `stats --json` on a live dir carries the index summary and the
/// per-run layout next to the registry snapshot.
fn report_registry_extra(json: bool, extra: Option<String>) -> i32 {
    let snap = pr_obs::global().snapshot();
    if json {
        let events = pr_obs::events().snapshot();
        let slow = pr_obs::recorder().snapshot();
        let mut doc = pr_obs::snapshot_json_full(&snap, Some(&events), Some(&slow));
        if let Some(extra) = extra {
            assert!(doc.ends_with('}'));
            doc.truncate(doc.len() - 1);
            doc.push(',');
            doc.push_str(&extra);
            doc.push('}');
        }
        println!("{doc}");
    } else {
        print_metrics_human(&snap);
    }
    0
}

fn print_metrics_human(snap: &pr_obs::RegistrySnapshot) {
    println!("metrics (process-wide registry):");
    for m in &snap.metrics {
        let name = if m.labels.is_empty() {
            m.name.clone()
        } else {
            let labels: Vec<String> = m.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
            format!("{}{{{}}}", m.name, labels.join(","))
        };
        match &m.value {
            pr_obs::MetricValue::Counter(v) | pr_obs::MetricValue::Gauge(v) => {
                println!("  {name:<44} {v}");
            }
            pr_obs::MetricValue::Histogram(h) if h.is_empty() => {
                println!("  {name:<44} count=0");
            }
            pr_obs::MetricValue::Histogram(h) => {
                println!(
                    "  {name:<44} count={} p50={} p99={} max={}",
                    h.len(),
                    h.quantile(0.5),
                    h.quantile(0.99),
                    h.max()
                );
            }
        }
    }
}

/// Writes the registry snapshot + event ring to `path` atomically
/// (temp file + rename), so a reader never sees a torn document.
fn write_metrics_file(path: &Path) -> std::io::Result<()> {
    let snap = pr_obs::global().snapshot();
    let events = pr_obs::events().snapshot();
    let doc = pr_obs::snapshot_json(&snap, Some(&events));
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, doc)?;
    std::fs::rename(&tmp, path)
}

/// Writes collected traces to `path` as Chrome trace-event JSON,
/// atomically (temp file + rename).
fn write_trace_file(path: &Path, traces: &[pr_obs::Trace]) -> std::io::Result<()> {
    let doc = pr_obs::chrome_trace_json(traces);
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, doc)?;
    std::fs::rename(&tmp, path)
}

/// Prints a traced traversal profile — the `--explain` report — and
/// cross-checks the trace's per-level counter sums **exactly** against
/// the query's own [`pr_tree::QueryStats`]. Live-dir queries publish
/// one trace per component; the profile aggregates them. Returns
/// nonzero (the command's exit code) on any mismatch: the trace and
/// the stats counters are two independent accountings of the same
/// traversal, and disagreement means one of them lies.
fn print_explain(traces: &[pr_obs::Trace], kind: &str, stats: &pr_tree::QueryStats) -> i32 {
    let traces: Vec<&pr_obs::Trace> = traces.iter().filter(|t| t.kind == kind).collect();
    let mut levels: Vec<pr_obs::LevelCounters> = Vec::new();
    let mut total_us = 0u64;
    for t in &traces {
        total_us += t.total_us;
        for (i, l) in t.levels.iter().enumerate() {
            if levels.len() <= i {
                levels.resize_with(i + 1, pr_obs::LevelCounters::default);
            }
            let acc = &mut levels[i];
            acc.nodes += l.nodes;
            acc.leaves += l.leaves;
            acc.internal += l.internal;
            acc.device_reads += l.device_reads;
        }
    }
    let sum = levels
        .iter()
        .fold(pr_obs::LevelCounters::default(), |mut s, l| {
            s.nodes += l.nodes;
            s.leaves += l.leaves;
            s.internal += l.internal;
            s.device_reads += l.device_reads;
            s
        });
    println!(
        "explain ({kind}): {} traced traversal(s), {total_us} µs",
        traces.len()
    );
    println!(
        "  {:<5} {:>7} {:>7} {:>9} {:>6}",
        "level", "nodes", "leaves", "internal", "reads"
    );
    for (i, l) in levels.iter().enumerate().rev() {
        println!(
            "  {:<5} {:>7} {:>7} {:>9} {:>6}",
            i, l.nodes, l.leaves, l.internal, l.device_reads
        );
    }
    println!(
        "  {:<5} {:>7} {:>7} {:>9} {:>6}",
        "sum", sum.nodes, sum.leaves, sum.internal, sum.device_reads
    );
    // Phase timings, aggregated by (layer, phase) across the traces.
    let mut phases: std::collections::BTreeMap<(&str, &str), (u64, u64)> =
        std::collections::BTreeMap::new();
    for t in &traces {
        for s in &t.spans {
            let e = phases.entry((s.layer, s.name)).or_insert((0, 0));
            e.0 += 1;
            e.1 += s.dur_us;
        }
    }
    println!("phases:");
    for ((layer, name), (count, us)) in &phases {
        println!("  {:<24} x{count:<4} {us} µs", format!("{layer}/{name}"));
    }
    let ok = sum.nodes == stats.nodes_visited
        && sum.leaves == stats.leaves_visited
        && sum.internal == stats.internal_visited
        && sum.device_reads == stats.device_reads;
    if ok {
        println!(
            "cross-check vs QueryStats: exact (nodes={} leaves={} internal={} reads={})",
            stats.nodes_visited, stats.leaves_visited, stats.internal_visited, stats.device_reads
        );
        0
    } else {
        eprintln!(
            "error: --explain cross-check FAILED: trace sums nodes={} leaves={} \
             internal={} reads={} vs QueryStats nodes={} leaves={} internal={} reads={}",
            sum.nodes,
            sum.leaves,
            sum.internal,
            sum.device_reads,
            stats.nodes_visited,
            stats.leaves_visited,
            stats.internal_visited,
            stats.device_reads
        );
        1
    }
}

/// Tiny flag parser: `--key value` pairs plus positional arguments.
struct Opts {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Opts {
    fn parse(args: &[String], value_flags: &[&str], bool_flags: &[&str]) -> Result<Opts, String> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            if let Some(name) = a.strip_prefix("--") {
                if bool_flags.contains(&name) {
                    flags.push((name.to_string(), None));
                } else if value_flags.contains(&name) {
                    i += 1;
                    let v = args
                        .get(i)
                        .ok_or_else(|| format!("--{name} expects a value"))?;
                    flags.push((name.to_string(), Some(v.clone())));
                } else {
                    return Err(format!("unknown option --{name}"));
                }
            } else {
                positional.push(a.clone());
            }
            i += 1;
        }
        Ok(Opts { positional, flags })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }
}

fn fail(msg: impl std::fmt::Display) -> i32 {
    eprintln!("error: {msg}");
    1
}

fn parse_coords<const N: usize>(s: &str, what: &str) -> Result<[f64; N], String> {
    let parts: Vec<&str> = s.split(',').collect();
    if parts.len() != N {
        return Err(format!("{what} expects {N} comma-separated numbers"));
    }
    let mut out = [0.0; N];
    for (o, p) in out.iter_mut().zip(&parts) {
        // `f64::from_str` takes "nan"; no comparison against it holds,
        // so a NaN side would silently match nothing.
        *o = p
            .trim()
            .parse::<f64>()
            .ok()
            .filter(|v| !v.is_nan())
            .ok_or_else(|| format!("{what}: '{p}' is not a number"))?;
    }
    Ok(out)
}

fn generate(data: &str, n: u32, seed: u64) -> Result<Vec<Item<2>>, String> {
    // The TIGER-like profiles carry their own base seed; `--seed`
    // overrides it so different seeds really do give different roads.
    let tiger = |mut profile: TigerProfile| {
        profile.seed = seed;
        profile.generate(n, profile.regions)
    };
    match data {
        "uniform" => Ok(uniform_points(n, seed)),
        "size" => Ok(size_dataset(n, 0.01, seed)),
        "tiger-east" => Ok(tiger(TigerProfile::eastern())),
        "tiger-west" => Ok(tiger(TigerProfile::western())),
        other => Err(format!(
            "unknown dataset '{other}' (want uniform | size | tiger-east | tiger-west)"
        )),
    }
}

fn parse_loader(name: &str) -> Result<LoaderKind, String> {
    LoaderKind::all()
        .into_iter()
        .find(|k| k.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown loader '{name}' (want PR | H | H4 | TGS | STR)"))
}

fn cmd_build(args: &[String]) -> i32 {
    let opts = match Opts::parse(args, &["out", "data", "n", "seed", "loader", "cap"], &[]) {
        Ok(o) => o,
        Err(e) => return fail(e),
    };
    let Some(out) = opts.get("out") else {
        return fail("build requires --out FILE");
    };
    let data = opts.get("data").unwrap_or("uniform");
    let n: u32 = match opts.get("n").unwrap_or("100000").parse() {
        Ok(n) => n,
        Err(_) => return fail("--n expects an integer"),
    };
    let seed: u64 = match opts.get("seed").unwrap_or("42").parse() {
        Ok(s) => s,
        Err(_) => return fail("--seed expects an integer"),
    };
    let kind = match parse_loader(opts.get("loader").unwrap_or("PR")) {
        Ok(k) => k,
        Err(e) => return fail(e),
    };
    let params = match opts.get("cap") {
        None => TreeParams::paper_2d(),
        Some(c) => match c.parse::<usize>() {
            Ok(cap) if cap >= 2 => TreeParams::with_cap::<2>(cap),
            _ => return fail("--cap expects an integer >= 2"),
        },
    };

    let t0 = Instant::now();
    let items = match generate(data, n, seed) {
        Ok(i) => i,
        Err(e) => return fail(e),
    };
    let gen_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
    let tree = match kind.loader::<2>().load(dev, params, items) {
        Ok(t) => t,
        Err(e) => return fail(e),
    };
    let build_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let path = PathBuf::from(out);
    let mut store = match Store::create::<2>(&path, params) {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    if let Err(e) = store.save(&tree) {
        return fail(e);
    }
    let save_s = t0.elapsed().as_secs_f64();
    let bytes = store.file_len().unwrap_or(0);

    println!(
        "built {} ({data}, n={n}, seed={seed}) in {build_s:.2}s (+{gen_s:.2}s data gen)",
        kind.name()
    );
    println!(
        "committed epoch {} to {}: {} pages of {} bytes ({bytes} bytes on disk) in {save_s:.2}s",
        store.superblock().epoch,
        path.display(),
        store.superblock().num_pages,
        store.block_size(),
    );
    println!(
        "tree: {} items, height {}, root level {}",
        tree.len(),
        tree.height(),
        tree.root_level()
    );
    0
}

/// Opens a store file and reopens its tree. Returns the store too so
/// callers can report verify-once / scrub state.
fn open_2d(path: &str, paranoid: bool) -> Result<(Store, RTree<2>), i32> {
    let read_path = if paranoid {
        ReadPath::Recheck
    } else {
        ReadPath::ZeroCopy
    };
    let store = Store::open(Path::new(path)).map_err(fail)?;
    let tree = store.tree_with::<2>(read_path).map_err(fail)?;
    Ok((store, tree))
}

fn parse_durability(s: &str) -> Result<Durability, String> {
    match s {
        "fsync" => Ok(Durability::Fsync),
        "async" => Ok(Durability::Async {
            max_inflight_bytes: 8 << 20,
        }),
        other => other
            .strip_prefix("async:")
            .and_then(|b| b.parse::<usize>().ok())
            .filter(|&b| b >= 1)
            .map(|b| Durability::Async {
                max_inflight_bytes: b,
            })
            .ok_or_else(|| {
                format!("--durability expects fsync | async | async:BYTES, got '{other}'")
            }),
    }
}

fn live_opts(opts: &Opts) -> Result<LiveOptions, String> {
    let mut lo = LiveOptions::default();
    if let Some(cap) = opts.get("buffer-cap") {
        lo.buffer_cap = cap
            .parse::<usize>()
            .ok()
            .filter(|&c| c >= 1)
            .ok_or("--buffer-cap expects an integer >= 1")?;
    }
    if opts.has("inline-merge") {
        lo.background_merge = false;
    }
    if let Some(d) = opts.get("durability") {
        lo.durability = parse_durability(d)?;
    }
    if opts.has("paranoid") {
        lo.recheck_reads = true;
    }
    // The sampler and the flight recorder are process-global statics,
    // not index state: set them here, before the index opens and can
    // arm a trace.
    if let Some(v) = opts.get("trace-sample") {
        let every = v
            .parse::<u64>()
            .map_err(|_| "--trace-sample expects an integer (0 disables)")?;
        pr_obs::trace::set_sampling(every);
    }
    if let Some(v) = opts.get("trace-slow-us") {
        let slow_us = v
            .parse::<u64>()
            .map_err(|_| "--trace-slow-us expects microseconds")?;
        pr_obs::recorder().configure(8, slow_us);
    }
    Ok(lo)
}

fn open_live(path: &str, lo: LiveOptions) -> Result<LiveIndex<2>, i32> {
    LiveIndex::<2>::open(Path::new(path), lo).map_err(fail)
}

fn print_live_stats(ix: &LiveIndex<2>, verify: bool) -> i32 {
    let s = match ix.stats() {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    println!("live index:   {}", ix.dir().display());
    println!(
        "items:        {} live ({} memtable, {} sealed, {} tombstones)",
        s.live, s.memtable, s.sealed, s.tombstones
    );
    print!("components:   {} [", s.components.len());
    for (i, (slot, len)) in s.components.iter().enumerate() {
        if i > 0 {
            print!(", ");
        }
        print!("slot {slot}: {len}");
    }
    println!("]");
    let m = pr_live::obs::metrics();
    println!(
        "deletes:      membership filters hold {} bytes; this process's probes \
         searched {} component(s), skipped {}",
        s.filter_bytes,
        m.probe_searched.get(),
        m.probe_skipped.get()
    );
    println!(
        "wal:          seq {} acked / {} synced / {} merged; {} segment(s), {} bytes",
        s.durable_seq, s.synced_seq, s.merged_seq, s.wal_segments, s.wal_bytes
    );
    println!(
        "group commit: {} records in {} groups, {} fsyncs",
        s.wal_group_records, s.wal_groups, s.wal_fsyncs
    );
    println!(
        "store:        epoch {}, {} bytes on disk ({} garbage); {} merges this session",
        s.store_epoch, s.store_file_bytes, s.store_garbage_bytes, s.merges
    );
    println!(
        "merge I/O:    {} pages written, {} reused in place; write amp {}.{:02}x",
        s.store_pages_written,
        s.store_pages_reused,
        s.write_amp_x100 / 100,
        s.write_amp_x100 % 100
    );
    print!("runs:         {} [", s.store_runs.len());
    for (i, r) in s.store_runs.iter().enumerate() {
        if i > 0 {
            print!(", ");
        }
        print!("id {} @ {} x{}", r.id, r.data_offset, r.num_pages);
    }
    println!("]");
    println!("wal arena:    {} buffer allocations", s.wal_arena_allocs);
    println!(
        "health:       wal {}, merges {}, store reads {}",
        if s.wal_degraded {
            "DEGRADED (transient group failure; next clean group recovers)"
        } else {
            "ok"
        },
        if s.merges_paused {
            "PAUSED (transient failure; retrying with backoff)"
        } else {
            "ok"
        },
        if s.store_degraded {
            "RECHECK (corruption seen; every read re-verified)"
        } else {
            "ok"
        },
    );
    if verify {
        // Same bit-rot scrub the store-file path runs: every snapshot
        // page re-hashed. A corrupt page is a nonzero exit either way.
        let t0 = Instant::now();
        match ix.scrub() {
            Ok(report) => println!(
                "checksums:    all {} pages scrubbed in {:.1} ms \
                 ({} were already verified by earlier reads)",
                report.pages,
                t0.elapsed().as_secs_f64() * 1e3,
                report.already_verified,
            ),
            Err(e) => return fail(e),
        }
    } else {
        println!("checksums:    skipped (--no-verify)");
    }
    0
}

fn cmd_ingest(args: &[String]) -> i32 {
    let opts = match Opts::parse(
        args,
        &[
            "data",
            "n",
            "seed",
            "id-base",
            "batch",
            "buffer-cap",
            "cap",
            "durability",
            "writers",
            "metrics-file",
            "trace-file",
            "trace-sample",
            "trace-slow-us",
        ],
        &["inline-merge", "flush"],
    ) {
        Ok(o) => o,
        Err(e) => return fail(e),
    };
    let [dir] = opts.positional.as_slice() else {
        return fail("ingest expects exactly one DIR argument");
    };
    let data = opts.get("data").unwrap_or("uniform");
    let n: u32 = match opts.get("n").unwrap_or("100000").parse() {
        Ok(n) => n,
        Err(_) => return fail("--n expects an integer"),
    };
    let seed: u64 = match opts.get("seed").unwrap_or("42").parse() {
        Ok(s) => s,
        Err(_) => return fail("--seed expects an integer"),
    };
    let id_base: u32 = match opts.get("id-base").unwrap_or("0").parse() {
        Ok(b) => b,
        Err(_) => return fail("--id-base expects an integer"),
    };
    let batch: usize = match opts.get("batch").unwrap_or("1024").parse() {
        Ok(b) if b >= 1 => b,
        _ => return fail("--batch expects an integer >= 1"),
    };
    let writers: usize = match opts.get("writers").unwrap_or("1").parse() {
        Ok(w) if w >= 1 => w,
        _ => return fail("--writers expects an integer >= 1"),
    };
    let params = match opts.get("cap") {
        None => TreeParams::paper_2d(),
        Some(c) => match c.parse::<usize>() {
            Ok(cap) if cap >= 2 => TreeParams::with_cap::<2>(cap),
            _ => return fail("--cap expects an integer >= 2"),
        },
    };
    let lo = match live_opts(&opts) {
        Ok(lo) => lo,
        Err(e) => return fail(e),
    };
    // --trace-file wants every operation in the export: trace 1-in-1
    // unless the user chose an explicit sampling rate, and buffer the
    // run's traces in a collector alongside the flight recorder.
    let trace_file = opts.get("trace-file").map(PathBuf::from);
    if trace_file.is_some() {
        if opts.get("trace-sample").is_none() {
            pr_obs::trace::set_sampling(1);
        }
        pr_obs::trace::install_collector(4096);
    }

    let mut items = match generate(data, n, seed) {
        Ok(i) => i,
        Err(e) => return fail(e),
    };
    for it in &mut items {
        it.id = match it.id.checked_add(id_base) {
            Some(id) => id,
            None => return fail("--id-base + generated id overflows u32; ids would collide"),
        };
    }

    let ix = match LiveIndex::<2>::open_or_create(Path::new(dir), params, lo) {
        Ok(ix) => ix,
        Err(e) => return fail(e),
    };
    // Periodic metrics flusher: a background thread rewrites FILE
    // (atomic rename) every 500 ms while the ingest runs, then a final
    // flush below captures the finished totals.
    let metrics_file = opts.get("metrics-file").map(PathBuf::from);
    let stop_flusher = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let flusher = metrics_file.clone().map(|path| {
        let stop = Arc::clone(&stop_flusher);
        std::thread::spawn(move || {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                if let Err(e) = write_metrics_file(&path) {
                    eprintln!("warning: could not write {}: {e}", path.display());
                    return;
                }
                std::thread::sleep(std::time::Duration::from_millis(500));
            }
        })
    });
    let t0 = Instant::now();
    // With --writers N the items are sharded across N threads whose
    // batches coalesce into shared group-commit fsyncs.
    let shard = items.len().div_ceil(writers).max(1);
    let mut failed: Option<String> = None;
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(shard)
            .map(|shard_items| {
                let ix = &ix;
                s.spawn(move || {
                    for chunk in shard_items.chunks(batch) {
                        ix.insert_batch(chunk)?;
                    }
                    Ok::<(), pr_live::LiveError>(())
                })
            })
            .collect();
        for h in handles {
            if let Err(e) = h.join().expect("ingest writer panicked") {
                failed.get_or_insert(e.to_string());
            }
        }
    });
    if let Some(e) = failed {
        return fail(e);
    }
    let acked_s = t0.elapsed().as_secs_f64();
    if let Err(e) = ix.wait_idle() {
        return fail(e);
    }
    if opts.has("flush") {
        if let Err(e) = ix.flush() {
            return fail(e);
        }
    }
    let total_s = t0.elapsed().as_secs_f64();
    stop_flusher.store(true, std::sync::atomic::Ordering::Relaxed);
    if let Some(h) = flusher {
        h.join().expect("metrics flusher panicked");
    }
    if let Some(path) = &metrics_file {
        match write_metrics_file(path) {
            Ok(()) => println!("wrote metrics to {}", path.display()),
            Err(e) => return fail(format!("could not write {}: {e}", path.display())),
        }
    }
    if let Some(path) = &trace_file {
        let traces = pr_obs::trace::drain_collector();
        match write_trace_file(path, &traces) {
            Ok(()) => println!(
                "wrote {} span trace(s) to {} (Chrome trace-event JSON)",
                traces.len(),
                path.display()
            ),
            Err(e) => return fail(format!("could not write {}: {e}", path.display())),
        }
    }
    println!(
        "ingested {n} items ({data}, seed {seed}, ids {id_base}..{}) with {writers} \
         writer(s) in {acked_s:.2}s acked ({:.0} items/s), {total_s:.2}s to idle",
        id_base as u64 + n as u64,
        n as f64 / acked_s.max(1e-9),
    );
    print_live_stats(&ix, false)
}

fn cmd_delete(args: &[String]) -> i32 {
    let opts = match Opts::parse(
        args,
        &[
            "window",
            "limit",
            "buffer-cap",
            "trace-sample",
            "trace-slow-us",
        ],
        &["inline-merge"],
    ) {
        Ok(o) => o,
        Err(e) => return fail(e),
    };
    let [dir] = opts.positional.as_slice() else {
        return fail("delete expects exactly one DIR argument");
    };
    let Some(window) = opts.get("window") else {
        return fail("delete requires --window X1,Y1,X2,Y2");
    };
    let [x1, y1, x2, y2] = match parse_coords::<4>(window, "--window") {
        Ok(c) => c,
        Err(e) => return fail(e),
    };
    let q = Rect::xyxy(x1.min(x2), y1.min(y2), x1.max(x2), y1.max(y2));
    let limit: usize = match opts.get("limit").map(str::parse) {
        None => usize::MAX,
        Some(Ok(l)) => l,
        Some(Err(_)) => return fail("--limit expects an integer"),
    };
    let lo = match live_opts(&opts) {
        Ok(lo) => lo,
        Err(e) => return fail(e),
    };
    let ix = match open_live(dir, lo) {
        Ok(ix) => ix,
        Err(code) => return code,
    };
    let victims = match ix.window(&q) {
        Ok((hits, _)) => hits,
        Err(e) => return fail(e),
    };
    let t0 = Instant::now();
    let mut deleted = 0u64;
    let take = limit.min(victims.len());
    // Batched deletes: one WAL fsync per chunk instead of per victim.
    for chunk in victims[..take].chunks(1024) {
        match ix.delete_batch(chunk) {
            Ok(n) => deleted += n,
            Err(e) => return fail(e),
        }
    }
    if let Err(e) = ix.wait_idle() {
        return fail(e);
    }
    println!(
        "deleted {deleted} of {} intersecting items in {:.2}s",
        victims.len(),
        t0.elapsed().as_secs_f64()
    );
    print_live_stats(&ix, false)
}

fn cmd_compact(args: &[String]) -> i32 {
    let opts = match Opts::parse(
        args,
        &[
            "buffer-cap",
            "max-garbage-pct",
            "trace-sample",
            "trace-slow-us",
        ],
        &["inline-merge"],
    ) {
        Ok(o) => o,
        Err(e) => return fail(e),
    };
    let [dir] = opts.positional.as_slice() else {
        return fail("compact expects exactly one DIR argument");
    };
    let max_garbage_pct = match opts.get("max-garbage-pct").map(str::parse::<u8>) {
        None => None,
        Some(Ok(p)) if p <= 100 => Some(p),
        Some(_) => return fail("--max-garbage-pct expects an integer 0..=100"),
    };
    let lo = match live_opts(&opts) {
        Ok(lo) => lo,
        Err(e) => return fail(e),
    };
    let ix = match open_live(dir, lo) {
        Ok(ix) => ix,
        Err(code) => return code,
    };
    let before = match ix.stats() {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    let t0 = Instant::now();
    if let Some(pct) = max_garbage_pct {
        // Conditional reclamation: rewrite only past the garbage
        // threshold, otherwise leave the incremental layout alone.
        match ix.compact_if_garbage(pct) {
            Ok(false) => {
                println!(
                    "skipped: {} garbage bytes of {} on disk is within {pct}%",
                    before.store_garbage_bytes, before.store_file_bytes
                );
                return print_live_stats(&ix, false);
            }
            Ok(true) => {}
            Err(e) => return fail(e),
        }
    } else if let Err(e) = ix.compact() {
        return fail(e);
    }
    let after = match ix.stats() {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    println!(
        "compacted in {:.2}s: {} → {} component(s), {} → {} tombstones, \
         {} → {} store bytes",
        t0.elapsed().as_secs_f64(),
        before.components.len(),
        after.components.len(),
        before.tombstones,
        after.tombstones,
        before.store_file_bytes,
        after.store_file_bytes
    );
    print_live_stats(&ix, false)
}

fn cmd_query_live(dir: &str, opts: &Opts, q: &Rect<2>) -> i32 {
    let lo = match live_opts(opts) {
        Ok(lo) => lo,
        Err(e) => return fail(e),
    };
    let t0 = Instant::now();
    let ix = match open_live(dir, lo) {
        Ok(ix) => ix,
        Err(code) => return code,
    };
    let open_s = t0.elapsed().as_secs_f64();

    let snap = ix.snapshot();
    let mut scratch = QueryScratch::new();
    let mut hits = Vec::new();
    let explain = opts.has("explain");
    if explain {
        // Live queries traverse one tree per component; sample every
        // traversal for this one query, then switch sampling back off so
        // any --repeat hot loop runs untraced.
        pr_obs::trace::install_collector(64);
        pr_obs::trace::set_sampling(1);
    }
    let t0 = Instant::now();
    let stats = match snap.window_into(q, &mut scratch, &mut hits) {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    let query_s = t0.elapsed().as_secs_f64();
    if explain {
        pr_obs::trace::set_sampling(0);
        let traces = pr_obs::trace::drain_collector();
        let code = print_explain(&traces, "window", &stats);
        if code != 0 {
            return code;
        }
    }

    println!("results: {}", hits.len());
    println!(
        "query I/O: {} leaves visited, {} internal, {} device reads ({:.1} ms) \
         across {} component(s) + memtable",
        stats.leaves_visited,
        stats.internal_visited,
        stats.device_reads,
        query_s * 1e3,
        snap.num_components(),
    );
    println!(
        "open+replay: {:.1} ms; {} items live at seq {}",
        open_s * 1e3,
        snap.len(),
        snap.seq()
    );
    if opts.has("verbose") {
        for item in hits.iter().take(20) {
            println!("  id {} rect {:?}", item.id, item.rect);
        }
        if hits.len() > 20 {
            println!("  ... and {} more", hits.len() - 20);
        }
    }
    if let Some(expect) = opts.get("expect") {
        match expect.parse::<usize>() {
            Ok(want) if want == hits.len() => {}
            Ok(want) => {
                eprintln!("error: expected {want} results, got {}", hits.len());
                return 1;
            }
            Err(_) => return fail("--expect expects an integer"),
        }
    }
    if let Some(repeat) = opts.get("repeat") {
        let reps: usize = match repeat.parse() {
            Ok(r) if r > 0 => r,
            _ => return fail("--repeat expects a positive integer"),
        };
        let t0 = Instant::now();
        let mut total = 0u64;
        for _ in 0..reps {
            match snap.window_into(q, &mut scratch, &mut hits) {
                Ok(_) => total += hits.len() as u64,
                Err(e) => return fail(e),
            }
        }
        let secs = t0.elapsed().as_secs_f64();
        println!(
            "hot loop: {reps} runs in {:.1} ms — {:.1} µs/query, {:.0} queries/s ({} results/run)",
            secs * 1e3,
            secs / reps as f64 * 1e6,
            reps as f64 / secs,
            total / reps as u64,
        );
    }
    0
}

fn cmd_query(args: &[String]) -> i32 {
    let opts = match Opts::parse(
        args,
        &[
            "window",
            "expect",
            "repeat",
            "buffer-cap",
            "trace-sample",
            "trace-slow-us",
        ],
        &["verbose", "inline-merge", "paranoid", "explain"],
    ) {
        Ok(o) => o,
        Err(e) => return fail(e),
    };
    let [file] = opts.positional.as_slice() else {
        return fail("query expects exactly one FILE argument");
    };
    let Some(window) = opts.get("window") else {
        return fail("query requires --window X1,Y1,X2,Y2");
    };
    let [x1, y1, x2, y2] = match parse_coords::<4>(window, "--window") {
        Ok(c) => c,
        Err(e) => return fail(e),
    };
    let q = Rect::xyxy(x1.min(x2), y1.min(y2), x1.max(x2), y1.max(y2));
    if Path::new(file).is_dir() {
        return cmd_query_live(file, &opts, &q);
    }

    let t0 = Instant::now();
    let (_store, tree) = match open_2d(file, opts.has("paranoid")) {
        Ok(t) => t,
        Err(code) => return code,
    };
    if let Err(e) = tree.warm_cache() {
        return fail(e);
    }
    let open_s = t0.elapsed().as_secs_f64();
    let open_reads = tree.device().io_stats().reads;

    let explain = opts.has("explain");
    let mut scratch = pr_tree::QueryScratch::new();
    if explain {
        pr_obs::trace::install_collector(16);
        scratch.trace = pr_obs::SpanCtx::forced("window");
    }
    let mut hits = Vec::new();
    let t0 = Instant::now();
    let stats = match tree.window_into(&q, &mut scratch, &mut hits) {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    let query_s = t0.elapsed().as_secs_f64();
    if explain {
        let traces = pr_obs::trace::drain_collector();
        let code = print_explain(&traces, "window", &stats);
        if code != 0 {
            return code;
        }
    }

    println!("results: {}", hits.len());
    println!(
        "query I/O: {} leaves visited, {} internal, {} device reads ({:.1} ms)",
        stats.leaves_visited,
        stats.internal_visited,
        stats.device_reads,
        query_s * 1e3
    );
    println!(
        "open+warm: {open_reads} page reads ({:.1} ms); {} items indexed, height {}",
        open_s * 1e3,
        tree.len(),
        tree.height()
    );
    if opts.has("verbose") {
        for item in hits.iter().take(20) {
            println!("  id {} rect {:?}", item.id, item.rect);
        }
        if hits.len() > 20 {
            println!("  ... and {} more", hits.len() - 20);
        }
    }
    if let Some(expect) = opts.get("expect") {
        match expect.parse::<usize>() {
            Ok(want) if want == hits.len() => {}
            Ok(want) => {
                eprintln!("error: expected {want} results, got {}", hits.len());
                return 1;
            }
            Err(_) => return fail("--expect expects an integer"),
        }
    }
    if let Some(repeat) = opts.get("repeat") {
        let reps: usize = match repeat.parse() {
            Ok(r) if r > 0 => r,
            _ => return fail("--repeat expects a positive integer"),
        };
        // Warm-cache hot loop: one QueryScratch reused across all runs,
        // so after the first iteration the traversal allocates nothing.
        let mut scratch = pr_tree::QueryScratch::new();
        let mut out = Vec::new();
        let t0 = Instant::now();
        let mut total = 0u64;
        for _ in 0..reps {
            match tree.window_into(&q, &mut scratch, &mut out) {
                Ok(_) => total += out.len() as u64,
                Err(e) => return fail(e),
            }
        }
        let secs = t0.elapsed().as_secs_f64();
        println!(
            "hot loop: {reps} runs in {:.1} ms — {:.1} µs/query, {:.0} queries/s ({} results/run)",
            secs * 1e3,
            secs / reps as f64 * 1e6,
            reps as f64 / secs,
            total / reps as u64,
        );
    }
    0
}

fn cmd_knn(args: &[String]) -> i32 {
    let opts = match Opts::parse(
        args,
        &["point", "k", "buffer-cap", "trace-sample", "trace-slow-us"],
        &["inline-merge", "paranoid", "explain"],
    ) {
        Ok(o) => o,
        Err(e) => return fail(e),
    };
    let [file] = opts.positional.as_slice() else {
        return fail("knn expects exactly one FILE argument");
    };
    let Some(point) = opts.get("point") else {
        return fail("knn requires --point X,Y");
    };
    let [x, y] = match parse_coords::<2>(point, "--point") {
        Ok(c) => c,
        Err(e) => return fail(e),
    };
    // An infinite window side is a half-open query; an infinite point
    // is at distance inf from everything, so "nearest" means nothing.
    if !(x.is_finite() && y.is_finite()) {
        return fail(format!("--point: '{point}' is not a finite point"));
    }
    let k: usize = match opts.get("k").unwrap_or("5").parse() {
        Ok(k) => k,
        Err(_) => return fail("--k expects an integer"),
    };
    if Path::new(file).is_dir() {
        let lo = match live_opts(&opts) {
            Ok(lo) => lo,
            Err(e) => return fail(e),
        };
        let ix = match open_live(file, lo) {
            Ok(ix) => ix,
            Err(code) => return code,
        };
        let snap = ix.snapshot();
        let mut scratch = QueryScratch::new();
        let mut neighbors = Vec::new();
        let explain = opts.has("explain");
        if explain {
            pr_obs::trace::install_collector(64);
            pr_obs::trace::set_sampling(1);
        }
        let t0 = Instant::now();
        let stats =
            match snap.nearest_neighbors_into(&Point::new([x, y]), k, &mut scratch, &mut neighbors)
            {
                Ok(s) => s,
                Err(e) => return fail(e),
            };
        let knn_s = t0.elapsed().as_secs_f64();
        if explain {
            pr_obs::trace::set_sampling(0);
            let traces = pr_obs::trace::drain_collector();
            let code = print_explain(&traces, "knn", &stats);
            if code != 0 {
                return code;
            }
        }
        println!("{} nearest to ({x}, {y}):", neighbors.len());
        for (item, dist) in &neighbors {
            println!("  id {:>8}  dist {dist:.6}  rect {:?}", item.id, item.rect);
        }
        println!(
            "knn I/O: {} leaves visited, {} device reads ({:.1} ms)",
            stats.leaves_visited,
            stats.device_reads,
            knn_s * 1e3
        );
        return 0;
    }
    let (_store, tree) = match open_2d(file, opts.has("paranoid")) {
        Ok(t) => t,
        Err(code) => return code,
    };
    if let Err(e) = tree.warm_cache() {
        return fail(e);
    }
    let explain = opts.has("explain");
    let mut scratch = pr_tree::QueryScratch::new();
    if explain {
        pr_obs::trace::install_collector(16);
        scratch.trace = pr_obs::SpanCtx::forced("knn");
    }
    let mut neighbors = Vec::new();
    let t0 = Instant::now();
    let stats =
        match tree.nearest_neighbors_into(&Point::new([x, y]), k, &mut scratch, &mut neighbors) {
            Ok(s) => s,
            Err(e) => return fail(e),
        };
    let knn_s = t0.elapsed().as_secs_f64();
    if explain {
        let traces = pr_obs::trace::drain_collector();
        let code = print_explain(&traces, "knn", &stats);
        if code != 0 {
            return code;
        }
    }
    println!("{} nearest to ({x}, {y}):", neighbors.len());
    for (item, dist) in &neighbors {
        println!("  id {:>8}  dist {dist:.6}  rect {:?}", item.id, item.rect);
    }
    println!(
        "knn I/O: {} leaves visited, {} device reads ({:.1} ms)",
        stats.leaves_visited,
        stats.device_reads,
        knn_s * 1e3
    );
    0
}

fn cmd_stats(args: &[String]) -> i32 {
    let opts = match Opts::parse(
        args,
        &["buffer-cap", "trace-sample", "trace-slow-us"],
        &["no-verify", "inline-merge", "paranoid", "json"],
    ) {
        Ok(o) => o,
        Err(e) => return fail(e),
    };
    let [file] = opts.positional.as_slice() else {
        return fail("stats expects exactly one FILE argument");
    };
    let json = opts.has("json");
    if Path::new(file).is_dir() {
        let lo = match live_opts(&opts) {
            Ok(lo) => lo,
            Err(e) => return fail(e),
        };
        let ix = match open_live(file, lo) {
            Ok(ix) => ix,
            Err(code) => return code,
        };
        if !json {
            let code = print_live_stats(&ix, !opts.has("no-verify"));
            if code != 0 {
                return code;
            }
            return report_registry(false);
        }
        if !opts.has("no-verify") {
            // JSON mode still scrubs (and still fails loudly on rot) —
            // the report just stays machine-readable.
            if let Err(e) = ix.scrub() {
                return fail(e);
            }
        }
        // The live-index summary and the per-run store layout ride as
        // extra top-level fields: CI diffs `store_runs` across commits
        // to prove byte-identical page reuse (unchanged id + offset).
        let s = match ix.stats() {
            Ok(s) => s,
            Err(e) => return fail(e),
        };
        let mut runs = pr_obs::json::JsonArr::new();
        for r in &s.store_runs {
            let mut o = pr_obs::json::JsonObj::new();
            o.u64("id", r.id)
                .u64("data_offset", r.data_offset)
                .u64("num_pages", r.num_pages);
            runs.push_raw(o.finish());
        }
        let mut live = pr_obs::json::JsonObj::new();
        live.u64("live", s.live)
            .u64("tombstones", s.tombstones)
            .u64("filter_bytes", s.filter_bytes)
            .u64("store_epoch", s.store_epoch)
            .u64("store_file_bytes", s.store_file_bytes)
            .u64("store_garbage_bytes", s.store_garbage_bytes)
            .u64("store_pages_written", s.store_pages_written)
            .u64("store_pages_reused", s.store_pages_reused)
            .f64p("write_amp", s.write_amp_x100 as f64 / 100.0, 2)
            .u64("wal_arena_allocs", s.wal_arena_allocs);
        let extra = format!(
            "\"index\":{},\"store_runs\":{}",
            live.finish(),
            runs.finish()
        );
        return report_registry_extra(true, Some(extra));
    }
    let store = match Store::open(Path::new(file)) {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    let sb = *store.superblock();
    if !json {
        println!("store:        {file}");
        println!("format:       v{} (pr-store)", pr_store::FORMAT_VERSION);
        println!(
            "superblock:   slot {} of 2, epoch {}",
            store.active_slot(),
            sb.epoch
        );
        println!("dimension:    {}", sb.dim);
        println!("block size:   {} bytes", sb.block_size);
        println!(
            "pages:        {} ({} bytes of pages)",
            sb.num_pages,
            sb.num_pages * sb.block_size as u64
        );
        println!(
            "layout:       data @ {}, checksum table @ {}, footer @ {}",
            sb.data_offset, sb.table_offset, sb.footer_offset
        );
        if let Ok(len) = store.file_len() {
            println!("file length:  {len} bytes");
        }
        println!(
            "tree meta:    {} items, root level {}, leaf/node cap {}/{}, page size {}",
            sb.meta.len,
            sb.meta.root_level,
            sb.meta.params.leaf_cap,
            sb.meta.params.node_cap,
            sb.meta.params.page_size
        );
    }
    if !sb.has_snapshot() {
        if !json {
            println!("snapshot:     none committed yet");
        }
        return report_registry(json);
    }

    if opts.has("no-verify") {
        // Metadata-only mode: no page is read, so this works (and stays
        // fast) even when the page region is damaged or huge.
        if !json {
            println!("checksums:    skipped (--no-verify; superblock metadata only)");
        }
        return report_registry(json);
    }
    // Eager scrub: re-hashes every page (its job is catching bit rot
    // even on pages earlier reads already verified) and marks them all
    // in the snapshot's shared verify-once bitmap — so the tree-shape
    // traversal below, which shares that bitmap, re-verifies nothing.
    let t0 = Instant::now();
    match store.scrub() {
        Ok(report) => {
            if !json {
                println!(
                    "checksums:    all {} pages scrubbed in {:.1} ms \
                     ({} were already verified by earlier reads)",
                    report.pages,
                    t0.elapsed().as_secs_f64() * 1e3,
                    report.already_verified,
                );
            }
        }
        Err(e) => return fail(e),
    }

    // The tree walk below goes through the same read path as query/knn.
    let read_path = if opts.has("paranoid") {
        ReadPath::Recheck
    } else {
        ReadPath::ZeroCopy
    };
    let tree = match store.tree_with::<2>(read_path) {
        Ok(t) => t,
        Err(e) => return fail(e),
    };
    match tree.stats() {
        Ok(s) => {
            if !json {
                println!(
                    "tree shape:   {} nodes ({} leaves), utilization {:.1}% (leaves {:.1}%)",
                    s.num_nodes(),
                    s.num_leaves(),
                    s.utilization() * 100.0,
                    s.leaf_utilization() * 100.0
                );
                println!("nodes/level:  {:?} (leaves first)", s.nodes_per_level);
            }
        }
        Err(e) => return fail(e),
    }
    if !json {
        let io = tree.device().io_stats();
        let (verified, total) = store.verified_pages();
        println!(
            "I/O counters: {} reads, {} writes through the store device",
            io.reads, io.writes
        );
        println!(
            "verify-once:  {verified}/{total} pages verified; reads of verified pages skip CRC"
        );
    }
    report_registry(json)
}

fn cmd_events(args: &[String]) -> i32 {
    let opts = match Opts::parse(
        args,
        &[
            "buffer-cap",
            "limit",
            "since",
            "trace-sample",
            "trace-slow-us",
        ],
        &["inline-merge", "paranoid", "json"],
    ) {
        Ok(o) => o,
        Err(e) => return fail(e),
    };
    let [file] = opts.positional.as_slice() else {
        return fail("events expects exactly one DIR argument");
    };
    let json = opts.has("json");
    let limit: usize = match opts.get("limit").map(str::parse) {
        None => usize::MAX,
        Some(Ok(l)) => l,
        Some(Err(_)) => return fail("--limit expects an integer"),
    };
    let since: Option<u64> = match opts.get("since").map(str::parse) {
        None => None,
        Some(Ok(s)) => Some(s),
        Some(Err(_)) => return fail("--since expects an event sequence number"),
    };
    // Lifecycle events are emitted by the live engine (WAL replay,
    // merges, seals); a bare store file never produces any, so asking
    // for its history is a usage error, not an empty success.
    if !Path::new(file).is_dir() {
        return fail(format!(
            "'{file}' is a store file; store files have no event history — \
             events requires a live index directory"
        ));
    }
    // Opening the live dir replays its WAL, so the ring always has the
    // recovery story to tell even on a fresh process.
    let lo = match live_opts(&opts) {
        Ok(lo) => lo,
        Err(e) => return fail(e),
    };
    let _ix = match open_live(file, lo) {
        Ok(ix) => ix,
        Err(code) => return code,
    };
    let log = match since {
        // Incremental poll: only events after SEQ, and `dropped` counts
        // how many of the requested events the bounded ring lost.
        Some(seq) => pr_obs::events().snapshot_since(seq),
        None => pr_obs::events().snapshot(),
    };
    let skip = log.events.len().saturating_sub(limit);
    if json {
        let mut arr = pr_obs::json::JsonArr::new();
        for e in &log.events[skip..] {
            arr.push_raw(pr_obs::event_json(e));
        }
        let mut obj = pr_obs::json::JsonObj::new();
        obj.u64("schema_version", pr_obs::SCHEMA_VERSION)
            .raw("events", &arr.finish_pretty())
            .u64("events_dropped", log.dropped);
        println!("{}", obj.finish());
    } else {
        match since {
            Some(seq) => println!(
                "{} lifecycle event(s) after #{seq} ({} lost to the bounded ring):",
                log.events.len(),
                log.dropped
            ),
            None => println!(
                "{} lifecycle event(s) ({} dropped by the bounded ring):",
                log.events.len(),
                log.dropped
            ),
        }
        for e in &log.events[skip..] {
            let dur = e
                .duration_us
                .map(|d| format!("  [{d} µs]"))
                .unwrap_or_default();
            println!("  #{:<4} {:<18} {}{dur}", e.seq, e.kind, e.detail);
        }
    }
    0
}

fn cmd_slow(args: &[String]) -> i32 {
    let opts = match Opts::parse(
        args,
        &["limit", "buffer-cap", "trace-sample", "trace-slow-us"],
        &["inline-merge", "paranoid", "json"],
    ) {
        Ok(o) => o,
        Err(e) => return fail(e),
    };
    let [file] = opts.positional.as_slice() else {
        return fail("slow expects exactly one DIR|FILE argument");
    };
    let json = opts.has("json");
    let limit: usize = match opts.get("limit").map(str::parse) {
        None => usize::MAX,
        Some(Ok(l)) if l > 0 => l,
        _ => return fail("--limit expects a positive integer"),
    };
    // Trace every op unless the caller picked their own sampling rate
    // (live_opts applies --trace-sample / --trace-slow-us globally).
    if opts.get("trace-sample").is_none() {
        pr_obs::trace::set_sampling(1);
    }
    if Path::new(file).is_dir() {
        // Opening replays the WAL under tracing; anything slow lands in
        // the flight recorder.
        let lo = match live_opts(&opts) {
            Ok(lo) => lo,
            Err(e) => return fail(e),
        };
        let _ix = match open_live(file, lo) {
            Ok(ix) => ix,
            Err(code) => return code,
        };
    } else {
        // A bare store file has no write pipeline; trace the next best
        // thing — open + full scrub — absorbing the store layer's
        // ambient spans so the trace shows where the time went.
        let mut trace = pr_obs::SpanCtx::forced("scrub");
        let ambient = pr_obs::AmbientScope::begin(true);
        let t0 = Instant::now();
        let store = match Store::open(Path::new(file)) {
            Ok(s) => s,
            Err(e) => return fail(e),
        };
        if store.superblock().has_snapshot() {
            if let Err(e) = store.scrub() {
                return fail(e);
            }
        }
        trace.absorb(ambient.finish());
        trace.span_since(
            "store",
            "scrub",
            t0,
            &format!("epoch={}", store.superblock().epoch),
        );
        trace.finish_publish();
    }
    pr_obs::trace::set_sampling(0);
    let mut groups = pr_obs::recorder().snapshot();
    for (_, traces) in groups.iter_mut() {
        traces.truncate(limit);
    }
    if json {
        println!("{}", pr_obs::slow_traces_json(&groups));
    } else if groups.is_empty() {
        println!("flight recorder: no ops above the slow threshold");
    } else {
        for (kind, traces) in &groups {
            println!("{kind}: {} slowest retained", traces.len());
            for t in traces {
                println!("  {:>9} µs total  {}", t.total_us, t.detail);
                for s in &t.spans {
                    let detail = if s.detail.is_empty() {
                        String::new()
                    } else {
                        format!("  {}", s.detail)
                    };
                    println!("    {:>9} µs  {}/{}{detail}", s.dur_us, s.layer, s.name);
                }
            }
        }
    }
    0
}

fn cmd_trace(args: &[String]) -> i32 {
    let opts = match Opts::parse(
        args,
        &["out", "buffer-cap", "trace-sample", "trace-slow-us"],
        &["inline-merge"],
    ) {
        Ok(o) => o,
        Err(e) => return fail(e),
    };
    let [dir] = opts.positional.as_slice() else {
        return fail("trace expects exactly one DIR argument");
    };
    if !Path::new(dir).is_dir() {
        return fail(format!(
            "'{dir}' is not a live index directory — trace captures the \
             live engine's pipeline (replay + flush)"
        ));
    }
    pr_obs::trace::install_collector(256);
    if opts.get("trace-sample").is_none() {
        pr_obs::trace::set_sampling(1);
    }
    let lo = match live_opts(&opts) {
        Ok(lo) => lo,
        Err(e) => return fail(e),
    };
    let ix = match open_live(dir, lo) {
        Ok(ix) => ix,
        Err(code) => return code,
    };
    // Force the memtable through a merge so the capture covers the full
    // pipeline (seal -> bulk-load -> store commit -> swap), not just
    // WAL replay.
    if let Err(e) = ix.flush() {
        return fail(e);
    }
    pr_obs::trace::set_sampling(0);
    let traces = pr_obs::trace::drain_collector();
    if traces.is_empty() {
        println!("no traces captured (empty WAL, empty memtable)");
        return 0;
    }
    match opts.get("out") {
        Some(path) => {
            let path = Path::new(path);
            if let Err(e) = write_trace_file(path, &traces) {
                return fail(format!("writing {}: {e}", path.display()));
            }
            println!(
                "wrote {} span trace(s) to {} (Chrome trace-event JSON — \
                 load in chrome://tracing or Perfetto)",
                traces.len(),
                path.display()
            );
        }
        None => println!("{}", pr_obs::chrome_trace_json(&traces)),
    }
    0
}

fn cmd_torture(args: &[String]) -> i32 {
    let opts = match Opts::parse(
        args,
        &[
            "seed",
            "batches",
            "batch",
            "writers",
            "durability",
            "stride",
        ],
        &[],
    ) {
        Ok(o) => o,
        Err(e) => return fail(e),
    };
    let dir = match opts.positional.as_slice() {
        [] => std::env::temp_dir().join(format!("prtree-torture-{}", std::process::id())),
        [dir] => PathBuf::from(dir),
        _ => return fail("torture expects at most one DIR argument"),
    };
    let mut cfg = pr_live::TortureConfig::small(&dir, Durability::Fsync);
    macro_rules! num_opt {
        ($name:literal, $field:expr) => {
            if let Some(v) = opts.get($name) {
                match v.parse() {
                    Ok(n) => $field = n,
                    Err(_) => return fail(concat!("--", $name, " expects an integer")),
                }
            }
        };
    }
    num_opt!("seed", cfg.seed);
    num_opt!("batches", cfg.batches);
    num_opt!("batch", cfg.batch);
    num_opt!("writers", cfg.writers);
    num_opt!("stride", cfg.stride);
    if let Some(d) = opts.get("durability") {
        cfg.durability = match parse_durability(d) {
            Ok(d) => d,
            Err(e) => return fail(e),
        };
    }
    println!(
        "torture: sweeping every{} failable I/O op of a {}x{} trace \
         ({} writer(s), {:?}) in {}",
        if cfg.stride > 1 {
            format!(" {}th", cfg.stride)
        } else {
            String::new()
        },
        cfg.batches,
        cfg.batch,
        cfg.writers,
        cfg.durability,
        dir.display()
    );
    let t0 = Instant::now();
    let report = if cfg.writers > 1 {
        pr_live::run_torture_multi(&cfg)
    } else {
        pr_live::run_torture(&cfg)
    };
    // The harness panics (aborting with a nonzero exit) on any invariant
    // violation, so reaching a report means the sweep passed.
    match report {
        Ok(r) => {
            println!(
                "torture: PASS — {} runs over {} ops in {:.2}s: {} faults injected \
                 ({} silent), {} transient failures, {} fatal; every run recovered \
                 exactly the acknowledged operations",
                r.runs,
                r.total_ops,
                t0.elapsed().as_secs_f64(),
                r.injected,
                r.silent,
                r.transient_failures,
                r.fatal_failures
            );
            std::fs::remove_dir_all(&dir).ok();
            0
        }
        Err(e) => fail(format!("torture harness could not run: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::parse_coords;

    #[test]
    fn parse_coords_takes_signed_zero_exponents_and_inf_but_not_nan() {
        assert_eq!(
            parse_coords::<4>("-0, 1e-3,inf,-inf", "--window"),
            Ok([-0.0, 1e-3, f64::INFINITY, f64::NEG_INFINITY])
        );
        for bad in ["nan,0", "0,NaN", "0,-nan", "0,x", "0,"] {
            let err = parse_coords::<2>(bad, "--point").unwrap_err();
            assert!(err.ends_with("is not a number"), "{bad}: {err}");
        }
        assert!(parse_coords::<2>("0,0,0", "--point").is_err());
    }
}

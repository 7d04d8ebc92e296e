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
//! component and rewrites the store file. `events` and `slow` dump the
//! lifecycle event ring and the slow-op flight recorder after an open;
//! `torture` runs the fault-injection sweep. Everything is 2-D, the
//! paper's experimental setting.
//!
//! Each command is one row of `COMMANDS`: its name, its handler and
//! every flag it accepts. A flag a command does not list is an
//! `unknown option` error, so every flag a command takes changes what it
//! does. Handlers return `Result`; `main` prints `error: …` and exits 1
//! (2 for an unknown command). `query` and `knn` open a store file and a
//! live directory through one `Reader`, so each reports, checks
//! `--expect` and arms `--explain` once for both kinds.

use pr_data::{size_dataset, uniform_points, TigerProfile};
use pr_em::{BlockDevice, MemDevice};
use pr_geom::{Item, Point, Rect};
use pr_live::{Durability, LiveIndex, LiveOptions, LiveSnapshot};
use pr_store::{ReadPath, ScrubReport, Store};
use pr_tree::bulk::LoaderKind;
use pr_tree::{QueryScratch, QueryStats, RTree, TreeParams};
use std::error::Error;
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::Arc;
use std::time::Instant;

/// A command's outcome: `main` prints the error and exits 1.
type CmdResult<T = ()> = Result<T, Box<dyn Error>>;

/// One flag a command accepts: `--name VALUE`, or a bare `--name`.
#[derive(Clone, Copy)]
enum Flag {
    Value(&'static str),
    Bool(&'static str),
}
use Flag::{Bool, Value};

impl Flag {
    fn name(self) -> &'static str {
        match self {
            Value(name) | Bool(name) => name,
        }
    }
}

/// What the span tracer samples and which traces the flight recorder
/// keeps: flags of the commands that print traces.
const TRACE_FLAGS: &[Flag] = &[Value("trace-sample"), Value("trace-slow-us")];
/// The memtable seal threshold and where merges run: flags of the
/// commands whose writes can trigger a merge.
const MERGE_FLAGS: &[Flag] = &[Value("buffer-cap"), Bool("inline-merge")];
/// Re-hash every store page on every read: flags of the commands that
/// read pages.
const PARANOID: &[Flag] = &[Bool("paranoid")];

/// A subcommand: its name, its handler and every flag it accepts.
struct Command {
    name: &'static str,
    run: fn(&Opts) -> CmdResult,
    flags: &'static [&'static [Flag]],
}

const COMMANDS: &[Command] = &[
    Command {
        name: "build",
        run: cmd_build,
        flags: &[&[
            Value("out"),
            Value("data"),
            Value("n"),
            Value("seed"),
            Value("loader"),
            Value("cap"),
        ]],
    },
    Command {
        name: "ingest",
        run: cmd_ingest,
        flags: &[
            &[
                Value("data"),
                Value("n"),
                Value("seed"),
                Value("id-base"),
                Value("batch"),
                Value("writers"),
                Value("durability"),
                Value("cap"),
                Value("metrics-file"),
                Value("trace-file"),
                Value("trace-sample"),
                Bool("flush"),
            ],
            MERGE_FLAGS,
        ],
    },
    Command {
        name: "delete",
        run: cmd_delete,
        flags: &[&[Value("window"), Value("limit")], MERGE_FLAGS],
    },
    Command {
        name: "compact",
        run: cmd_compact,
        // The compaction runs on the caller's thread whatever
        // --inline-merge says; --buffer-cap picks the slot it lands in.
        flags: &[&[Value("max-garbage-pct"), Value("buffer-cap")]],
    },
    Command {
        name: "query",
        run: cmd_query,
        flags: &[
            &[
                Value("window"),
                Value("expect"),
                Value("repeat"),
                Bool("verbose"),
                Bool("explain"),
            ],
            PARANOID,
        ],
    },
    Command {
        name: "knn",
        run: cmd_knn,
        flags: &[&[Value("point"), Value("k"), Bool("explain")], PARANOID],
    },
    Command {
        name: "stats",
        run: cmd_stats,
        flags: &[&[Bool("no-verify"), Bool("json")], PARANOID, TRACE_FLAGS],
    },
    Command {
        name: "events",
        run: cmd_events,
        flags: &[&[Value("limit"), Value("since"), Bool("json")]],
    },
    Command {
        name: "slow",
        run: cmd_slow,
        flags: &[&[Value("limit"), Bool("json")], TRACE_FLAGS],
    },
    Command {
        name: "torture",
        run: cmd_torture,
        flags: &[&[
            Value("seed"),
            Value("batches"),
            Value("batch"),
            Value("writers"),
            Value("durability"),
            Value("stride"),
        ]],
    },
];

const USAGE: &str = "usage: prtree <command> [options]\n\
\n\
commands:\n\
\x20 build --out FILE [--data KIND] [--n N] [--seed S] [--loader L] [--cap C]\n\
\x20       build a synthetic index and commit it to FILE\n\
\x20       KIND: uniform | size | tiger-east | tiger-west   (default uniform)\n\
\x20       L:    PR | H | H4 | TGS | STR                    (default PR)\n\
\x20       C:    entries per node (default: the paper's 113 / 4KB pages)\n\
\x20 ingest DIR [--data KIND] [--n N] [--seed S] [--id-base B] [--batch SIZE]\n\
\x20        [--writers W] [--durability fsync|async|async:BYTES] [--cap C]\n\
\x20        [--buffer-cap C] [--inline-merge] [--flush]\n\
\x20        [--metrics-file FILE] [--trace-file FILE] [--trace-sample N]\n\
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
\x20       --trace-file FILE traces every operation (1 in N with\n\
\x20       --trace-sample N) and writes the run's span traces to FILE as\n\
\x20       Chrome trace-event JSON on exit (open in about://tracing or\n\
\x20       Perfetto; --n 0 --flush captures just open + replay + flush).\n\
\x20       --buffer-cap C seals the memtable at C items (default 1024);\n\
\x20       --inline-merge runs merges on the writer instead of the\n\
\x20       background thread (both also apply to delete)\n\
\x20 delete DIR --window X1,Y1,X2,Y2 [--limit N] [--buffer-cap C] [--inline-merge]\n\
\x20       durably delete (up to N) live items intersecting the window\n\
\x20 compact DIR [--max-garbage-pct P] [--buffer-cap C]\n\
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
\x20       [--trace-sample N] [--trace-slow-us U]\n\
\x20       store file: dump the superblock, eagerly scrub every page CRC\n\
\x20       through the verify-once bitmap (reporting verified/total), report\n\
\x20       tree shape (--no-verify stops after the superblock dump).\n\
\x20       Live dir: WAL/memtable/component/tombstone/degraded-mode state,\n\
\x20       plus a full store scrub (nonzero exit on any corrupt page;\n\
\x20       --no-verify skips it). Both paths end with the process-wide\n\
\x20       metrics registry (one formatter). --json emits the registry\n\
\x20       snapshot + lifecycle events + the slow-op flight recorder as\n\
\x20       one JSON document; live dirs add an \"index\" summary (write\n\
\x20       amp, garbage, arena allocs, \"components\": [{slot, items}])\n\
\x20       and the per-run \"store_runs\"\n\
\x20       layout (stable id + byte offset + pages — unchanged pairs\n\
\x20       across commits prove in-place page reuse)\n\
\x20 events DIR [--limit N] [--since SEQ] [--json]\n\
\x20       replay the lifecycle event ring after opening the live index\n\
\x20       (open + WAL replay) — WAL rotations, group flushes, seals,\n\
\x20       merges, compactions, scrubs. --since SEQ tails\n\
\x20       only events with seq > SEQ (incremental polling; the report's\n\
\x20       dropped count covers the gap). Store files have no event\n\
\x20       history: a file path is an error\n\
\x20 slow DIR|FILE [--limit N] [--json] [--trace-sample N] [--trace-slow-us U]\n\
\x20       trace every operation of the open (live dir: WAL replay;\n\
\x20       store file: open + scrub) and dump the slow-op flight\n\
\x20       recorder: the N slowest traces per op-kind, slowest first.\n\
\x20       stats/slow accept --trace-sample N (span-trace 1 op in N; 0 =\n\
\x20       off, the default for stats) and --trace-slow-us U (the flight\n\
\x20       recorder keeps only traces of at least U µs)\n\
\x20 torture [DIR] [--seed S] [--batches B] [--batch SIZE] [--writers W]\n\
\x20        [--durability fsync|async|async:BYTES] [--stride K]\n\
\x20       fault-injection torture sweep: run a scripted ingest trace once\n\
\x20       to count its I/O ops and fault-mark hits, then re-run it once per\n\
\x20       op with exactly that op failing (EIO / ENOSPC / torn write /\n\
\x20       EINTR, cycling) and once per mark hit with a power cut there,\n\
\x20       reopening after each run and verifying the acked-prefix\n\
\x20       invariant. --stride K sweeps every Kth op; --writers W > 1\n\
\x20       switches to the concurrent insert-only trace. Exits 0 only\n\
\x20       if every run recovers exactly the acknowledged operations";

fn main() {
    init_obs();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map_or("--help", String::as_str);
    if name == "--help" || name == "-h" {
        eprintln!("{USAGE}");
        return;
    }
    let Some(cmd) = COMMANDS.iter().find(|c| c.name == name) else {
        eprintln!("error: unknown command '{name}'");
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let outcome = Opts::parse(cmd, &args[1..])
        .map_err(Into::into)
        .and_then(|opts| (cmd.run)(&opts));
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

/// A command's arguments: positionals plus `--flag [value]` pairs, each
/// flag checked against the command's row in `COMMANDS`.
struct Opts {
    cmd: &'static str,
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Opts {
    fn parse(cmd: &Command, args: &[String]) -> Result<Opts, String> {
        let mut opts = Opts {
            cmd: cmd.name,
            positional: Vec::new(),
            flags: Vec::new(),
        };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let Some(name) = arg.strip_prefix("--") else {
                opts.positional.push(arg.clone());
                continue;
            };
            let flag = cmd
                .flags
                .iter()
                .flat_map(|set| set.iter())
                .find(|f| f.name() == name)
                .ok_or_else(|| format!("unknown option --{name}"))?;
            let value = match flag {
                Bool(_) => None,
                Value(_) => Some(
                    args.next()
                        .ok_or_else(|| format!("--{name} expects a value"))?
                        .clone(),
                ),
            };
            opts.flags.push((name.to_string(), value));
        }
        Ok(opts)
    }

    /// The flag's value; the last one wins when it is repeated.
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

    fn require(&self, name: &str, what: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("{} requires --{name} {what}", self.cmd))
    }

    /// The one positional argument (`what` names it in the error).
    fn path(&self, what: &str) -> Result<&str, String> {
        match self.positional.as_slice() {
            [path] => Ok(path),
            _ => Err(format!("{} expects exactly one {what} argument", self.cmd)),
        }
    }

    fn opt_num<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name} expects an integer"))
            })
            .transpose()
    }

    fn num<T: FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        Ok(self.opt_num(name)?.unwrap_or(default))
    }

    fn num_min<T: FromStr + PartialOrd + Display>(
        &self,
        name: &str,
        default: T,
        min: T,
    ) -> Result<T, String> {
        match self.num(name, default) {
            Ok(n) if n >= min => Ok(n),
            _ => Err(format!("--{name} expects an integer >= {min}")),
        }
    }
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
/// versioned JSON document (with the lifecycle event ring). `extra`
/// holds further top-level fields (raw `"key":value,...` JSON, no
/// braces) spliced into the document — how `stats --json` on a live
/// dir carries the index summary and the per-run layout.
fn report_registry(json: bool, extra: Option<String>) {
    let snap = pr_obs::global().snapshot();
    if !json {
        print_metrics_human(&snap);
        return;
    }
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

/// Writes `doc` to `path` atomically (temp file + rename), so a reader
/// never sees a torn document.
fn write_atomic(path: &Path, doc: String) -> Result<(), String> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, doc)
        .and_then(|()| std::fs::rename(&tmp, path))
        .map_err(|e| format!("could not write {}: {e}", path.display()))
}

/// The registry snapshot + event ring, as `--metrics-file` writes it.
fn write_metrics_file(path: &Path) -> Result<(), String> {
    let snap = pr_obs::global().snapshot();
    let events = pr_obs::events().snapshot();
    write_atomic(path, pr_obs::snapshot_json(&snap, Some(&events)))
}

/// Applies `--trace-sample` (default `every`; 0 = off) and
/// `--trace-slow-us`. The sampler and the flight recorder are
/// process-global statics, not index state: set them before the index
/// opens and can arm a trace.
fn arm_tracing(opts: &Opts, every: u64) -> Result<(), String> {
    pr_obs::trace::set_sampling(opts.num("trace-sample", every)?);
    pr_obs::recorder().configure(8, opts.num("trace-slow-us", 0)?);
    Ok(())
}

/// Prints a traced traversal profile — the `--explain` report — and
/// cross-checks the trace's per-level counter sums **exactly** against
/// the query's own [`QueryStats`]. Live-dir queries publish one trace
/// per component; the profile aggregates them. Any mismatch is an error
/// (the command exits 1): the trace and the stats counters are two
/// independent accountings of the same traversal, and disagreement
/// means one of them lies.
fn print_explain(traces: &[pr_obs::Trace], kind: &str, stats: &QueryStats) -> Result<(), String> {
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
    if !ok {
        return Err(format!(
            "--explain cross-check FAILED: trace sums nodes={} leaves={} \
             internal={} reads={} vs QueryStats nodes={} leaves={} internal={} reads={}",
            sum.nodes,
            sum.leaves,
            sum.internal,
            sum.device_reads,
            stats.nodes_visited,
            stats.leaves_visited,
            stats.internal_visited,
            stats.device_reads
        ));
    }
    println!(
        "cross-check vs QueryStats: exact (nodes={} leaves={} internal={} reads={})",
        stats.nodes_visited, stats.leaves_visited, stats.internal_visited, stats.device_reads
    );
    Ok(())
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

/// `--window X1,Y1,X2,Y2`, corners in either order.
fn window(opts: &Opts) -> Result<Rect<2>, String> {
    let [x1, y1, x2, y2] = parse_coords::<4>(opts.require("window", "X1,Y1,X2,Y2")?, "--window")?;
    Ok(Rect::xyxy(x1.min(x2), y1.min(y2), x1.max(x2), y1.max(y2)))
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

/// `--cap C` entries per node, or the paper's 4 KB pages.
fn tree_params(opts: &Opts) -> Result<TreeParams, String> {
    Ok(if opts.has("cap") {
        TreeParams::with_cap::<2>(opts.num_min("cap", 2, 2)?)
    } else {
        TreeParams::paper_2d()
    })
}

/// `--durability fsync|async|async:BYTES`, or `default`.
fn durability(opts: &Opts, default: Durability) -> Result<Durability, String> {
    match opts.get("durability") {
        None => Ok(default),
        Some("fsync") => Ok(Durability::Fsync),
        Some("async") => Ok(Durability::Async {
            max_inflight_bytes: 8 << 20,
        }),
        Some(other) => other
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

fn read_path(opts: &Opts) -> ReadPath {
    if opts.has("paranoid") {
        ReadPath::Recheck
    } else {
        ReadPath::ZeroCopy
    }
}

/// How every command opens a live index: the defaults, changed only by
/// the flags the command accepts.
fn live_opts(opts: &Opts) -> Result<LiveOptions, String> {
    let d = LiveOptions::default();
    Ok(LiveOptions {
        buffer_cap: opts.num_min("buffer-cap", d.buffer_cap, 1)?,
        background_merge: !opts.has("inline-merge"),
        durability: durability(opts, d.durability)?,
        recheck_reads: opts.has("paranoid"),
    })
}

fn open_live(dir: &str, opts: &Opts) -> CmdResult<LiveIndex<2>> {
    Ok(LiveIndex::<2>::open(Path::new(dir), live_opts(opts)?)?)
}

fn cmd_build(opts: &Opts) -> CmdResult {
    let out = opts.require("out", "FILE")?;
    let data = opts.get("data").unwrap_or("uniform");
    let n: u32 = opts.num("n", 100_000)?;
    let seed: u64 = opts.num("seed", 42)?;
    let kind = parse_loader(opts.get("loader").unwrap_or("PR"))?;
    let params = tree_params(opts)?;

    let t0 = Instant::now();
    let items = generate(data, n, seed)?;
    let gen_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
    let tree = kind.loader::<2>().load(dev, params, items)?;
    let build_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let path = PathBuf::from(out);
    let mut store = Store::create::<2>(&path, params)?;
    store.save(&tree)?;
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
    Ok(())
}

/// The live index's state, every line but the checksum one (which says
/// whether this command scrubbed).
fn print_live_stats(ix: &LiveIndex<2>) -> CmdResult {
    let s = ix.stats()?;
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
    Ok(())
}

/// How `ingest`, `delete` and `compact` end: the index's state after
/// the write. None of them re-hashes pages; `stats` does.
fn print_write_stats(ix: &LiveIndex<2>) -> CmdResult {
    print_live_stats(ix)?;
    println!("checksums:    not scrubbed (run `prtree stats`)");
    Ok(())
}

fn print_scrub(report: &ScrubReport, t0: Instant) {
    println!(
        "checksums:    all {} pages scrubbed in {:.1} ms \
         ({} were already verified by earlier reads)",
        report.pages,
        t0.elapsed().as_secs_f64() * 1e3,
        report.already_verified,
    );
}

fn cmd_ingest(opts: &Opts) -> CmdResult {
    let dir = opts.path("DIR")?;
    let data = opts.get("data").unwrap_or("uniform");
    let n: u32 = opts.num("n", 100_000)?;
    let seed: u64 = opts.num("seed", 42)?;
    let id_base: u32 = opts.num("id-base", 0)?;
    let batch: usize = opts.num_min("batch", 1024, 1)?;
    let writers: usize = opts.num_min("writers", 1, 1)?;
    let params = tree_params(opts)?;
    let lo = live_opts(opts)?;
    let metrics_file = opts.get("metrics-file").map(PathBuf::from);
    // --trace-file wants every operation in the export: trace 1-in-1
    // unless --trace-sample says otherwise, and buffer the run's traces
    // in a collector alongside the flight recorder.
    let trace_file = opts.get("trace-file").map(PathBuf::from);
    arm_tracing(opts, trace_file.is_some().into())?;
    if trace_file.is_some() {
        pr_obs::trace::install_collector(4096);
    }

    let mut items = generate(data, n, seed)?;
    for it in &mut items {
        it.id = it
            .id
            .checked_add(id_base)
            .ok_or("--id-base + generated id overflows u32; ids would collide")?;
    }

    let ix = LiveIndex::<2>::open_or_create(Path::new(dir), params, lo)?;
    // Periodic metrics flusher: a background thread rewrites FILE
    // (atomic rename) every 500 ms while the ingest runs, then a final
    // flush below captures the finished totals.
    let stop_flusher = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let flusher = metrics_file.clone().map(|path| {
        let stop = Arc::clone(&stop_flusher);
        std::thread::spawn(move || {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                if let Err(e) = write_metrics_file(&path) {
                    eprintln!("warning: {e}");
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
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(shard)
            .map(|shard_items| {
                let ix = &ix;
                s.spawn(move || {
                    shard_items
                        .chunks(batch)
                        .try_for_each(|chunk| ix.insert_batch(chunk))
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("ingest writer panicked"))
    })?;
    let acked_s = t0.elapsed().as_secs_f64();
    ix.wait_idle()?;
    if opts.has("flush") {
        ix.flush()?;
    }
    let total_s = t0.elapsed().as_secs_f64();
    stop_flusher.store(true, std::sync::atomic::Ordering::Relaxed);
    if let Some(h) = flusher {
        h.join().expect("metrics flusher panicked");
    }
    if let Some(path) = &metrics_file {
        write_metrics_file(path)?;
        println!("wrote metrics to {}", path.display());
    }
    if let Some(path) = &trace_file {
        let traces = pr_obs::trace::drain_collector();
        write_atomic(path, pr_obs::chrome_trace_json(&traces))?;
        println!(
            "wrote {} span trace(s) to {} (Chrome trace-event JSON)",
            traces.len(),
            path.display()
        );
    }
    println!(
        "ingested {n} items ({data}, seed {seed}, ids {id_base}..{}) with {writers} \
         writer(s) in {acked_s:.2}s acked ({:.0} items/s), {total_s:.2}s to idle",
        id_base as u64 + n as u64,
        n as f64 / acked_s.max(1e-9),
    );
    print_write_stats(&ix)
}

fn cmd_delete(opts: &Opts) -> CmdResult {
    let dir = opts.path("DIR")?;
    let q = window(opts)?;
    let limit: usize = opts.num("limit", usize::MAX)?;
    let ix = open_live(dir, opts)?;
    let (victims, _) = ix.window(&q)?;
    let t0 = Instant::now();
    let mut deleted = 0u64;
    let take = limit.min(victims.len());
    // Batched deletes: one WAL fsync per chunk instead of per victim.
    for chunk in victims[..take].chunks(1024) {
        deleted += ix.delete_batch(chunk)?;
    }
    ix.wait_idle()?;
    println!(
        "deleted {deleted} of {} intersecting items in {:.2}s",
        victims.len(),
        t0.elapsed().as_secs_f64()
    );
    print_write_stats(&ix)
}

fn cmd_compact(opts: &Opts) -> CmdResult {
    let dir = opts.path("DIR")?;
    let max_garbage_pct = match opts.opt_num::<u8>("max-garbage-pct") {
        Ok(p) if p.is_none_or(|p| p <= 100) => p,
        _ => return Err("--max-garbage-pct expects an integer 0..=100".into()),
    };
    let ix = open_live(dir, opts)?;
    let before = ix.stats()?;
    let t0 = Instant::now();
    if let Some(pct) = max_garbage_pct {
        // Conditional reclamation: rewrite only past the garbage
        // threshold, otherwise leave the incremental layout alone.
        if !ix.compact_if_garbage(pct)? {
            println!(
                "skipped: {} garbage bytes of {} on disk is within {pct}%",
                before.store_garbage_bytes, before.store_file_bytes
            );
            return print_write_stats(&ix);
        }
    } else {
        ix.compact()?;
    }
    let after = ix.stats()?;
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
    print_write_stats(&ix)
}

/// What `query` and `knn` read: a store file's tree (warmed at open),
/// or a snapshot of a live directory whose index stays open beside it.
enum Reader {
    File {
        tree: RTree<2>,
        open_reads: u64,
    },
    Live {
        snap: LiveSnapshot<2>,
        _ix: LiveIndex<2>,
    },
}

impl Reader {
    fn open(path: &str, opts: &Opts) -> CmdResult<Reader> {
        if Path::new(path).is_dir() {
            let ix = open_live(path, opts)?;
            return Ok(Reader::Live {
                snap: ix.snapshot(),
                _ix: ix,
            });
        }
        let tree = Store::open(Path::new(path))?.tree_with::<2>(read_path(opts))?;
        tree.warm_cache()?;
        let open_reads = tree.device().io_stats().reads;
        Ok(Reader::File { tree, open_reads })
    }

    fn window(
        &self,
        q: &Rect<2>,
        scratch: &mut QueryScratch<2>,
        out: &mut Vec<Item<2>>,
    ) -> CmdResult<QueryStats> {
        Ok(match self {
            Reader::File { tree, .. } => tree.window_into(q, scratch, out)?,
            Reader::Live { snap, .. } => snap.window_into(q, scratch, out)?,
        })
    }

    fn knn(
        &self,
        p: &Point<2>,
        k: usize,
        scratch: &mut QueryScratch<2>,
        out: &mut Vec<(Item<2>, f64)>,
    ) -> CmdResult<QueryStats> {
        Ok(match self {
            Reader::File { tree, .. } => tree.nearest_neighbors_into(p, k, scratch, out)?,
            Reader::Live { snap, .. } => snap.nearest_neighbors_into(p, k, scratch, out)?,
        })
    }

    /// The tail of the `query I/O` line: the trees a live query fans
    /// out over.
    fn fanout(&self) -> String {
        match self {
            Reader::File { .. } => String::new(),
            Reader::Live { snap, .. } => {
                format!(" across {} component(s) + memtable", snap.num_components())
            }
        }
    }

    /// What opening cost, and what it found.
    fn open_line(&self, open_ms: f64) -> String {
        match self {
            Reader::File { tree, open_reads } => format!(
                "open+warm: {open_reads} page reads ({open_ms:.1} ms); {} items indexed, height {}",
                tree.len(),
                tree.height()
            ),
            Reader::Live { snap, .. } => format!(
                "open+replay: {open_ms:.1} ms; {} items live at seq {}",
                snap.len(),
                snap.seq()
            ),
        }
    }
}

/// Runs one query and times it in ms. With `--explain` every traversal
/// it makes is traced — sampling goes 1-in-1 for the query, then back
/// off so a `--repeat` loop runs untraced — and the profile is printed
/// and cross-checked against the query's own statistics.
fn explained(
    opts: &Opts,
    kind: &str,
    query: impl FnOnce() -> CmdResult<QueryStats>,
) -> CmdResult<(QueryStats, f64)> {
    let explain = opts.has("explain");
    if explain {
        pr_obs::trace::install_collector(64);
        pr_obs::trace::set_sampling(1);
    }
    let t0 = Instant::now();
    let stats = query()?;
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    if explain {
        pr_obs::trace::set_sampling(0);
        print_explain(&pr_obs::trace::drain_collector(), kind, &stats)?;
    }
    Ok((stats, ms))
}

fn cmd_query(opts: &Opts) -> CmdResult {
    let path = opts.path("FILE")?;
    let q = window(opts)?;
    let expect: Option<usize> = opts.opt_num("expect")?;
    let reps: usize = opts.num("repeat", 0)?;

    let t0 = Instant::now();
    let reader = Reader::open(path, opts)?;
    let open_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut scratch = QueryScratch::new();
    let mut hits = Vec::new();
    let (stats, query_ms) = explained(opts, "window", || {
        reader.window(&q, &mut scratch, &mut hits)
    })?;

    println!("results: {}", hits.len());
    println!(
        "query I/O: {} leaves visited, {} internal, {} device reads ({query_ms:.1} ms){}",
        stats.leaves_visited,
        stats.internal_visited,
        stats.device_reads,
        reader.fanout(),
    );
    println!("{}", reader.open_line(open_ms));
    if opts.has("verbose") {
        for item in hits.iter().take(20) {
            println!("  id {} rect {:?}", item.id, item.rect);
        }
        if hits.len() > 20 {
            println!("  ... and {} more", hits.len() - 20);
        }
    }
    if let Some(want) = expect.filter(|&want| want != hits.len()) {
        return Err(format!("expected {want} results, got {}", hits.len()).into());
    }
    if reps > 0 {
        // Warm-cache hot loop: one QueryScratch reused across all runs,
        // so after the first iteration the traversal allocates nothing.
        let t0 = Instant::now();
        let mut total = 0u64;
        for _ in 0..reps {
            reader.window(&q, &mut scratch, &mut hits)?;
            total += hits.len() as u64;
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
    Ok(())
}

fn cmd_knn(opts: &Opts) -> CmdResult {
    let path = opts.path("FILE")?;
    let point = opts.require("point", "X,Y")?;
    let [x, y] = parse_coords::<2>(point, "--point")?;
    // An infinite window side is a half-open query; an infinite point
    // is at distance inf from everything, so "nearest" means nothing.
    if !(x.is_finite() && y.is_finite()) {
        return Err(format!("--point: '{point}' is not a finite point").into());
    }
    let k: usize = opts.num("k", 5)?;

    let reader = Reader::open(path, opts)?;
    let mut scratch = QueryScratch::new();
    let mut neighbors = Vec::new();
    let (stats, knn_ms) = explained(opts, "knn", || {
        reader.knn(&Point::new([x, y]), k, &mut scratch, &mut neighbors)
    })?;
    println!("{} nearest to ({x}, {y}):", neighbors.len());
    for (item, dist) in &neighbors {
        println!("  id {:>8}  dist {dist:.6}  rect {:?}", item.id, item.rect);
    }
    println!(
        "knn I/O: {} leaves visited, {} device reads ({knn_ms:.1} ms)",
        stats.leaves_visited, stats.device_reads,
    );
    Ok(())
}

fn cmd_stats(opts: &Opts) -> CmdResult {
    let path = opts.path("FILE")?;
    arm_tracing(opts, 0)?;
    if Path::new(path).is_dir() {
        stats_live(path, opts)
    } else {
        stats_file(path, opts)
    }
}

fn stats_live(dir: &str, opts: &Opts) -> CmdResult {
    let json = opts.has("json");
    let verify = !opts.has("no-verify");
    let ix = open_live(dir, opts)?;
    if !json {
        print_live_stats(&ix)?;
        if verify {
            // Same bit-rot scrub the store-file path runs: every
            // snapshot page re-hashed. A corrupt page is a nonzero exit.
            let t0 = Instant::now();
            print_scrub(&ix.scrub()?, t0);
        } else {
            println!("checksums:    skipped (--no-verify)");
        }
        report_registry(false, None);
        return Ok(());
    }
    if verify {
        // JSON mode still scrubs (and still fails loudly on rot) — the
        // report just stays machine-readable.
        ix.scrub()?;
    }
    // The live-index summary and the per-run store layout ride as extra
    // top-level fields: CI diffs `store_runs` across commits to prove
    // byte-identical page reuse (unchanged id + offset).
    let s = ix.stats()?;
    let mut runs = pr_obs::json::JsonArr::new();
    for r in &s.store_runs {
        let mut o = pr_obs::json::JsonObj::new();
        o.u64("id", r.id)
            .u64("data_offset", r.data_offset)
            .u64("num_pages", r.num_pages);
        runs.push_raw(o.finish());
    }
    let mut components = pr_obs::json::JsonArr::new();
    for &(slot, items) in &s.components {
        let mut o = pr_obs::json::JsonObj::new();
        o.u64("slot", slot as u64).u64("items", items);
        components.push_raw(o.finish());
    }
    let mut live = pr_obs::json::JsonObj::new();
    live.u64("live", s.live)
        .raw("components", &components.finish())
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
    report_registry(true, Some(extra));
    Ok(())
}

fn stats_file(file: &str, opts: &Opts) -> CmdResult {
    let json = opts.has("json");
    let store = Store::open(Path::new(file))?;
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
    } else if opts.has("no-verify") {
        // Metadata-only mode: no page is read, so this works (and stays
        // fast) even when the page region is damaged or huge.
        if !json {
            println!("checksums:    skipped (--no-verify; superblock metadata only)");
        }
    } else {
        // Eager scrub: re-hashes every page (its job is catching bit rot
        // even on pages earlier reads already verified) and marks them
        // all in the snapshot's shared verify-once bitmap — so the
        // tree-shape traversal below, which shares that bitmap,
        // re-verifies nothing.
        let t0 = Instant::now();
        let report = store.scrub()?;
        if !json {
            print_scrub(&report, t0);
        }
        // The tree walk goes through the same read path as query/knn.
        let tree = store.tree_with::<2>(read_path(opts))?;
        let shape = tree.stats()?;
        if !json {
            println!(
                "tree shape:   {} nodes ({} leaves), utilization {:.1}% (leaves {:.1}%)",
                shape.num_nodes(),
                shape.num_leaves(),
                shape.utilization() * 100.0,
                shape.leaf_utilization() * 100.0
            );
            println!("nodes/level:  {:?} (leaves first)", shape.nodes_per_level);
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
    }
    report_registry(json, None);
    Ok(())
}

fn cmd_events(opts: &Opts) -> CmdResult {
    let dir = opts.path("DIR")?;
    let json = opts.has("json");
    let limit: usize = opts.num("limit", usize::MAX)?;
    let since: Option<u64> = opts.opt_num("since")?;
    // Lifecycle events are emitted by the live engine (WAL replay,
    // merges, seals); a bare store file never produces any, so asking
    // for its history is a usage error, not an empty success.
    if !Path::new(dir).is_dir() {
        return Err(format!(
            "'{dir}' is a store file; store files have no event history — \
             events requires a live index directory"
        )
        .into());
    }
    // Opening the live dir replays its WAL, so the ring always has the
    // recovery story to tell even on a fresh process.
    let _ix = open_live(dir, opts)?;
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
        return Ok(());
    }
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
    Ok(())
}

fn cmd_slow(opts: &Opts) -> CmdResult {
    let path = opts.path("DIR|FILE")?;
    let json = opts.has("json");
    let limit: usize = opts.num_min("limit", usize::MAX, 1)?;
    // Trace every op unless --trace-sample picks another rate.
    arm_tracing(opts, 1)?;
    if Path::new(path).is_dir() {
        // Opening replays the WAL under tracing; anything slow lands in
        // the flight recorder.
        let _ix = open_live(path, opts)?;
    } else {
        // A bare store file has no write pipeline; trace the next best
        // thing — open + full scrub — absorbing the store layer's
        // ambient spans so the trace shows where the time went.
        let mut trace = pr_obs::SpanCtx::forced("scrub");
        let ambient = pr_obs::AmbientScope::begin(true);
        let t0 = Instant::now();
        let store = Store::open(Path::new(path))?;
        if store.superblock().has_snapshot() {
            store.scrub()?;
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
    Ok(())
}

fn cmd_torture(opts: &Opts) -> CmdResult {
    let dir = match opts.positional.as_slice() {
        [] => std::env::temp_dir().join(format!("prtree-torture-{}", std::process::id())),
        [dir] => PathBuf::from(dir),
        _ => return Err("torture expects at most one DIR argument".into()),
    };
    let small = pr_live::TortureConfig::small(&dir, Durability::Fsync);
    let cfg = pr_live::TortureConfig {
        seed: opts.num("seed", small.seed)?,
        batches: opts.num("batches", small.batches)?,
        batch: opts.num("batch", small.batch)?,
        writers: opts.num("writers", small.writers)?,
        stride: opts.num("stride", small.stride)?,
        durability: durability(opts, small.durability)?,
        ..small
    };
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
    // The harness panics (aborting with a nonzero exit) on any invariant
    // violation, so reaching a report means the sweep passed.
    let r =
        pr_live::run_torture(&cfg).map_err(|e| format!("torture harness could not run: {e}"))?;
    println!(
        "torture: PASS — {} runs over {} ops and {} mark hits in {:.2}s: {} faults \
         injected ({} silent), {} transient failures, {} fatal; every run \
         recovered exactly the acknowledged operations",
        r.runs,
        r.total_ops,
        r.marks,
        t0.elapsed().as_secs_f64(),
        r.injected,
        r.silent,
        r.transient_failures,
        r.fatal_failures
    );
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

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

    fn command(name: &str) -> &'static Command {
        COMMANDS.iter().find(|c| c.name == name).unwrap()
    }

    fn parse(cmd: &str, args: &[&str]) -> Result<Opts, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        Opts::parse(command(cmd), &args)
    }

    /// Every `--flag` token of `USAGE`.
    fn usage_flags() -> BTreeSet<&'static str> {
        USAGE
            .match_indices("--")
            .map(|(at, _)| {
                let rest = &USAGE[at + 2..];
                let end = rest
                    .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                    .unwrap_or(rest.len());
                &rest[..end]
            })
            .collect()
    }

    #[test]
    fn usage_names_every_flag_and_only_flags_some_command_takes() {
        let documented = usage_flags();
        let mut accepted = BTreeSet::new();
        for cmd in COMMANDS {
            assert!(USAGE.contains(&format!("  {} ", cmd.name)), "{}", cmd.name);
            for flag in cmd.flags.iter().flat_map(|set| set.iter()) {
                assert!(
                    documented.contains(flag.name()),
                    "{} --{} is missing from USAGE",
                    cmd.name,
                    flag.name()
                );
                accepted.insert(flag.name());
            }
        }
        let stray: Vec<_> = documented.difference(&accepted).collect();
        assert!(
            stray.is_empty(),
            "USAGE documents flags no command takes: {stray:?}"
        );
    }

    #[test]
    fn flags_parse_against_the_command_row() {
        let err = |cmd: &str, args: &[&str]| parse(cmd, args).err().unwrap();
        assert_eq!(err("query", &["idx", "--x"]), "unknown option --x");
        // Flags a command does not act on are refused, not ignored.
        assert_eq!(
            err("query", &["idx", "--buffer-cap", "8"]),
            "unknown option --buffer-cap"
        );
        assert_eq!(
            err("events", &["dir", "--paranoid"]),
            "unknown option --paranoid"
        );
        assert_eq!(
            err("query", &["idx", "--window"]),
            "--window expects a value"
        );

        let opts = parse("ingest", &["dir", "--n", "1", "--flush", "--n", "2"]).unwrap();
        assert_eq!(opts.positional, ["dir"]);
        assert_eq!(opts.num::<u32>("n", 7), Ok(2), "the last value wins");
        assert!(opts.has("flush") && !opts.has("inline-merge"));
        assert_eq!(opts.num::<u64>("seed", 42), Ok(42));
        assert_eq!(opts.path("DIR"), Ok("dir"));
    }

    #[test]
    fn typed_getters_name_the_flag_and_its_bound() {
        let opts = parse("ingest", &["--batch", "0", "--n", "x", "--writers", "3"]).unwrap();
        assert_eq!(
            opts.num_min::<usize>("batch", 1024, 1),
            Err("--batch expects an integer >= 1".into())
        );
        assert_eq!(
            opts.num::<u32>("n", 5),
            Err("--n expects an integer".into())
        );
        assert_eq!(opts.num_min::<usize>("writers", 1, 1), Ok(3));
        assert_eq!(opts.opt_num::<u32>("id-base"), Ok(None));
        assert_eq!(
            opts.path("DIR"),
            Err("ingest expects exactly one DIR argument".into())
        );
        assert_eq!(
            opts.require("trace-file", "FILE"),
            Err("ingest requires --trace-file FILE".into())
        );
    }
}

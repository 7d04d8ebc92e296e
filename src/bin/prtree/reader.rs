use crate::opts::{open_live, read_path, Opts};
use crate::CmdResult;
use pr_geom::{Item, Point, Rect};
use pr_live::{LiveIndex, LiveSnapshot};
use pr_store::Store;
use pr_tree::{QueryScratch, QueryStats, RTree};
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Prints a traced traversal profile — the `--explain` report — and
/// cross-checks the trace's per-level counter sums **exactly** against
/// the query's own [`QueryStats`]. Live-dir queries publish one trace
/// per component; the profile aggregates them. Any mismatch is an error
/// (the command exits 1): the trace and the stats counters are two
/// independent accountings of the same traversal, and disagreement
/// means one of them lies. The verdict is the outer result; the inner
/// one is the report's write, which the caller returns after its own
/// checks.
fn print_explain(
    out: &mut dyn Write,
    traces: &[pr_obs::Trace],
    kind: &str,
    stats: &QueryStats,
) -> CmdResult<io::Result<()>> {
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
    let ok = sum.nodes == stats.nodes_visited
        && sum.leaves == stats.leaves_visited
        && sum.internal == stats.internal_visited
        && sum.device_reads == stats.device_reads;
    // The profile goes out before the verdict, but a failed cross-check
    // outranks a reader that closed the pipe during the profile.
    let report = (|| -> io::Result<()> {
        writeln!(
            out,
            "explain ({kind}): {} traced traversal(s), {total_us} µs",
            traces.len()
        )?;
        writeln!(
            out,
            "  {:<5} {:>7} {:>7} {:>9} {:>6}",
            "level", "nodes", "leaves", "internal", "reads"
        )?;
        for (i, l) in levels.iter().enumerate().rev() {
            writeln!(
                out,
                "  {:<5} {:>7} {:>7} {:>9} {:>6}",
                i, l.nodes, l.leaves, l.internal, l.device_reads
            )?;
        }
        writeln!(
            out,
            "  {:<5} {:>7} {:>7} {:>9} {:>6}",
            "sum", sum.nodes, sum.leaves, sum.internal, sum.device_reads
        )?;
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
        writeln!(out, "phases:")?;
        for ((layer, name), (count, us)) in &phases {
            writeln!(
                out,
                "  {:<24} x{count:<4} {us} µs",
                format!("{layer}/{name}")
            )?;
        }
        Ok(())
    })();
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
        )
        .into());
    }
    Ok(report.and_then(|()| {
        writeln!(
            out,
            "cross-check vs QueryStats: exact (nodes={} leaves={} internal={} reads={})",
            stats.nodes_visited, stats.leaves_visited, stats.internal_visited, stats.device_reads
        )
    }))
}

/// What `query` and `knn` read: a store file's tree (warmed at open),
/// or a snapshot of a live directory whose index stays open beside it.
pub(crate) enum Reader {
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
    pub(crate) fn open(path: &str, opts: &Opts) -> CmdResult<Reader> {
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

    pub(crate) fn window(
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

    pub(crate) fn knn(
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
    pub(crate) fn fanout(&self) -> String {
        match self {
            Reader::File { .. } => String::new(),
            Reader::Live { snap, .. } => {
                format!(" across {} component(s) + memtable", snap.num_components())
            }
        }
    }

    /// The `--explain` line for a live query's in-memory level: the
    /// loose chunks it scanned and the ones the snapshot holds. A chunk
    /// scan reads no page, so it stays out of the level sums.
    fn loose_line(&self, stats: &QueryStats) -> Option<String> {
        match self {
            Reader::File { .. } => None,
            Reader::Live { snap, .. } => Some(format!(
                "loose chunks: {} scanned of {} held (in memory, outside the level sums)",
                stats.loose_chunks,
                snap.loose_chunks()
            )),
        }
    }

    /// What opening cost, and what it found.
    pub(crate) fn open_line(&self, open_ms: f64) -> String {
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
/// and cross-checked against the query's own statistics, followed by
/// the live reader's loose-chunk line. A failed cross-check is an
/// error; the profile's write result is returned beside the stats, so
/// a caller with a check of its own (`query --expect`) runs it before
/// a closed pipe ends the command.
pub(crate) fn explained(
    opts: &Opts,
    out: &mut dyn Write,
    kind: &str,
    reader: &Reader,
    query: impl FnOnce() -> CmdResult<QueryStats>,
) -> CmdResult<(QueryStats, f64, io::Result<()>)> {
    let explain = opts.has("explain");
    if explain {
        pr_obs::trace::install_collector(64);
        pr_obs::trace::set_sampling(1);
    }
    let t0 = Instant::now();
    let stats = query()?;
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut written = Ok(());
    if explain {
        pr_obs::trace::set_sampling(0);
        written = print_explain(out, &pr_obs::trace::drain_collector(), kind, &stats)?;
        if let Some(line) = reader.loose_line(&stats) {
            written = written.and_then(|()| writeln!(out, "{line}"));
        }
    }
    Ok((stats, ms, written))
}

//! The durable-index workload, `live_mixed`: fsync-acked ingest into a
//! fresh `LiveIndex`, then insert/delete churn beside fresh-snapshot
//! queries, a restart, and a compaction — once per round.
//!
//! Every round starts from an empty directory and does the same work on
//! the same inputs, so rounds are repetitions and a round slowed by a
//! co-tenant of the host can be told from the others.
//!
//! Flush policy, stated in every output: `Durability::Fsync` — a write
//! call returns after its WAL group is fsynced (`LiveOptions::default()`
//! otherwise: buffer 1024, 16 MiB leaf cache; see [`opts`] for the one
//! stated exception, inline merges).

use crate::ctx::{Ctx, Failure, Run};
use crate::gen;
use crate::host::Scratch;
use crate::probes;
use crate::query::{self, Bufs, Queryable};
use crate::spans::Layer;
use crate::statics::{BATCH, GRID_B, GRID_K, ITEM_BYTES};
use crate::stats;
use prtree::data::worst_case_grid;
use prtree::em::{BlockDevice, MemDevice};
use prtree::geom::{Item, Point, Rect};
use prtree::live::{run_torture, Durability, LiveIndex, LiveOptions, LiveStats, TortureConfig};
use prtree::store::Store;
use prtree::tree::bulk::pr::PrTreeLoader;
use prtree::tree::bulk::BulkLoader;
use prtree::tree::TreeParams;
use std::path::Path;
use std::sync::Arc;

pub const FLUSH_POLICY: &str = "Durability::Fsync (ack = WAL group fsynced), buffer_cap 1024, \
     merges inline on the writer";

fn params() -> TreeParams {
    TreeParams::paper_2d()
}

/// The defaults, except that merges run inline on the writer. With the
/// merge worker the seal points — and with them the component layout,
/// the tombstone backlog, the bytes written — depend on thread timing,
/// which on this 2-core shared host put 9–35 % run-to-run spread on
/// write-amp, k-NN and reopen. Inline, the same seed gives the same
/// index byte for byte, the run is one thread, and a write call's time
/// holds all the work the write caused instead of hiding merges behind
/// backpressure.
fn opts() -> LiveOptions {
    LiveOptions {
        background_merge: false,
        ..LiveOptions::default()
    }
}

/// Items a round ingests into its fresh index before the churn (100
/// batches, 50 memtable seals, six merge levels). Small on purpose: at
/// 150 000 a round took 1.0–1.5 s, so a run held 20 of them, and its
/// compaction — one 5.4 MB body fsync — read 675 k to 1.05 M items/s
/// from run to run on a quiet host. At this size a run holds 70 rounds
/// and the same cell repeats within 5 %.
const BASE: usize = 51_200;
/// Items moved per write call of the churn.
const CHURN: usize = 256;
/// Churn cycles per round.
const CYCLES: usize = 40;
const WINDOWS_PER_CYCLE: usize = 32;
const KNN_PER_CYCLE: usize = 8;
/// Restarts per round.
const REOPENS: usize = 5;

/// Inputs of `live_mixed`: everything a round does is read off these.
pub struct Spec {
    /// Seeded order. A round ingests `pool[..base]`, then each cycle
    /// inserts the next [`CHURN`] and deletes the oldest [`CHURN`].
    pool: Vec<Item<2>>,
    base: usize,
    cycles: usize,
    windows: Vec<Rect<2>>,
    points: Vec<Point<2>>,
}

impl Spec {
    /// What the index holds at the end of a round.
    fn truth(&self) -> &[Item<2>] {
        &self.pool[self.cycles * CHURN..]
    }
}

/// Makes the unmerged WAL tail a restart replays exactly `tail` —
/// settle, checkpoint everything before it (`flush`), then ack `tail`
/// and nothing more. Without this the tail is whatever the last merge
/// left (0–4 096 records), and `reopen_ms` inherits that lottery.
fn checkpoint_then(ctx: &mut Ctx, live: &LiveIndex<2>, tail: &[Item<2>]) -> Run<f64> {
    ctx.op(Layer::Live, "wait_idle", || live.wait_idle())?;
    ctx.op(Layer::Live, "flush", || live.flush())?;
    Ok(ctx
        .op(Layer::Live, "insert_batch", || live.insert_batch(tail))?
        .1)
}

/// Process-wide device / WAL counters the per-index `LiveStats` lacks.
struct Counters {
    em_ios: u64,
    wal_bytes: u64,
}

fn counters() -> Counters {
    let s = pr_obs::global().snapshot();
    Counters {
        em_ios: s.counter("em_device_reads_total") + s.counter("em_device_writes_total"),
        wal_bytes: s.counter("live_wal_bytes_total"),
    }
}

fn live_stats(ctx: &mut Ctx, live: &LiveIndex<2>) -> Run<LiveStats> {
    Ok(ctx.op(Layer::Live, "stats", || live.stats())?.0)
}

fn create(ctx: &mut Ctx, path: &Path) -> Run<LiveIndex<2>> {
    let _ = std::fs::remove_dir_all(path);
    Ok(ctx
        .op(Layer::Live, "create", || {
            LiveIndex::<2>::create(path, params(), opts())
        })?
        .0)
}

/// Inserts `items` in [`BATCH`]-item calls, appending per-call ns.
fn ingest(ctx: &mut Ctx, live: &LiveIndex<2>, items: &[Item<2>], lat: &mut Vec<f64>) -> Run<()> {
    for chunk in items.chunks(BATCH) {
        lat.push(
            ctx.op(Layer::Live, "insert_batch", || live.insert_batch(chunk))?
                .1,
        );
    }
    Ok(())
}

/// Set-up: generate, and push one discarded round through the scratch
/// directory so the allocator, page cache, WAL path and query paths are
/// warm.
pub fn setup(ctx: &mut Ctx, dir: &Scratch) -> Run<Spec> {
    let c = ctx.cfg.clone();
    let (spec, _) = ctx.op_ok(Layer::Driver, "generate", || {
        let (base, cycles) = (c.scaled(BASE), c.scaled(CYCLES));
        let pool = gen::shuffled(gen::tiger(base + (cycles + 1) * CHURN), c.seed);
        Spec {
            points: gen::knn_points(&pool[..base], CYCLES * KNN_PER_CYCLE, c.seed),
            windows: gen::windows(1e-4, CYCLES * WINDOWS_PER_CYCLE, c.seed),
            pool,
            base,
            cycles,
        }
    });
    round(ctx, &spec, dir, &mut Bufs::default())?;
    Ok(spec)
}

/// One round: a fresh directory, the ingest, the churn beside queries,
/// then what a restart and a rebuild cost on the result. Leaves the
/// compacted index in `dir/index`.
pub fn round(ctx: &mut Ctx, spec: &Spec, dir: &Scratch, bufs: &mut Bufs) -> Run<()> {
    let path = dir.path().join("index");
    let wal0 = counters().wal_bytes;
    let live = create(ctx, &path)?;

    let mut lat = Vec::with_capacity(spec.base / BATCH + 2 * spec.cycles + 2);
    ingest(ctx, &live, &spec.pool[..spec.base], &mut lat)?;
    let insert_ns: f64 = lat.iter().sum();
    ctx.push("insert_items_per_s", spec.base as f64 / (insert_ns / 1e9));

    let churn_ns = churn(ctx, spec, &live, &mut lat, bufs)?;
    let churned = 2 * CHURN * spec.cycles;
    ctx.push("churn_items_per_s", churned as f64 / (churn_ns / 1e9));

    let tail = &spec.pool[spec.base + spec.cycles * CHURN..];
    lat.push(checkpoint_then(ctx, &live, tail)?);
    let acked = spec.base + churned + tail.len();
    record_writes(ctx, acked, lat);
    let st = live_stats(ctx, &live)?;
    record_layout(ctx, &st, acked, wal0);
    ctx.op_ok(Layer::Live, "close", || drop(live));

    let live = reopen(ctx, spec, &path)?;
    compact(ctx, &live, spec.truth().len())
}

/// `spec.cycles` cycles of { insert [`CHURN`] new, delete the [`CHURN`]
/// oldest, take a fresh snapshot, [`WINDOWS_PER_CYCLE`] windows,
/// [`KNN_PER_CYCLE`] k-NN }: live size stays put while tombstones and
/// components churn. Appends the write calls' ns to `write_lat` and
/// returns their sum; records the round's query percentiles.
fn churn(
    ctx: &mut Ctx,
    spec: &Spec,
    live: &LiveIndex<2>,
    write_lat: &mut Vec<f64>,
    bufs: &mut Bufs,
) -> Run<f64> {
    let mut window_lat = Vec::with_capacity(spec.cycles * WINDOWS_PER_CYCLE);
    let mut knn_lat = Vec::with_capacity(spec.cycles * KNN_PER_CYCLE);
    let (mut leaves, mut internal, mut knn_leaves, mut comps) = (0u64, 0u64, 0u64, 0usize);
    let (mut rel_sum, mut rel_n) = (0.0, 0u64);
    let (mut write_ns, mut snap_ns) = (0.0, 0.0);
    for c in 0..spec.cycles {
        let new = &spec.pool[spec.base + c * CHURN..][..CHURN];
        let ((), ns) = ctx.op(Layer::Live, "insert_batch", || live.insert_batch(new))?;
        write_lat.push(ns);
        write_ns += ns;
        let old = &spec.pool[c * CHURN..][..CHURN];
        let (gone, ns) = ctx.op(Layer::Live, "delete_batch", || live.delete_batch(old))?;
        write_lat.push(ns);
        write_ns += ns;
        ctx.check(gone == CHURN as u64, || {
            format!("delete_batch removed {gone} of {CHURN}")
        });

        let (snap, ns) = ctx.op_ok(Layer::Live, "snapshot", || live.snapshot());
        snap_ns += ns;
        comps += snap.num_components();
        for j in 0..WINDOWS_PER_CYCLE {
            let q = &spec.windows[(c * WINDOWS_PER_CYCLE + j) % spec.windows.len()];
            let (st, ns) = ctx.op(Layer::Live, "window", || {
                snap.window_q(q, &mut bufs.scratch, &mut bufs.items)
            })?;
            window_lat.push(ns);
            leaves += st.leaves_visited;
            internal += st.internal_visited;
            if let Some(rel) = st.relative_cost(query::leaf_cap()) {
                rel_sum += rel;
                rel_n += 1;
            }
        }
        for j in 0..KNN_PER_CYCLE {
            let p = &spec.points[(c * KNN_PER_CYCLE + j) % spec.points.len()];
            let (st, ns) = ctx.op(Layer::Live, "knn", || {
                snap.knn_q(p, &mut bufs.scratch, &mut bufs.neighbors)
            })?;
            knn_lat.push(ns);
            knn_leaves += st.leaves_visited;
        }
    }
    ctx.add("window_queries", window_lat.len() as f64);
    ctx.add("window_ns", window_lat.iter().sum());
    ctx.add("window_leaves", leaves as f64);
    ctx.add("window_internal", internal as f64);
    ctx.add("window_rel_sum", rel_sum);
    ctx.add("window_rel_n", rel_n as f64);
    ctx.add("knn_queries", knn_lat.len() as f64);
    ctx.add("knn_leaves", knn_leaves as f64);
    for (lat, p50, p99) in [
        (&mut window_lat, "window_p50_us", "window_p99_us"),
        (&mut knn_lat, "knn_p50_us", "knn_p99_us"),
    ] {
        stats::sort(lat);
        ctx.push(p50, stats::percentile(lat, 50.0) / 1e3);
        ctx.push(p99, stats::percentile(lat, 99.0) / 1e3);
    }
    ctx.push("snapshot_ns", snap_ns / spec.cycles as f64);
    ctx.push("components", comps as f64 / spec.cycles as f64);
    Ok(write_ns)
}

/// Records a round's write calls: acked items ÷ time inside them, the
/// p99 call, and the stall counters of the per-layer ledger.
fn record_writes(ctx: &mut Ctx, items: usize, mut lat: Vec<f64>) {
    let total_ns: f64 = lat.iter().sum();
    stats::sort(&mut lat);
    let p50 = stats::percentile(&lat, 50.0);
    ctx.push("ingest_items_per_s", items as f64 / (total_ns / 1e9));
    ctx.push("ingest_batch_p99_us", stats::percentile(&lat, 99.0) / 1e3);
    ctx.add("write_calls", lat.len() as f64);
    ctx.add(
        "live.stalled_batches",
        lat.iter().filter(|&&ns| ns > 10.0 * p50).count() as f64,
    );
    let max_ms = lat.last().copied().unwrap_or(0.0) / 1e6;
    if max_ms > ctx.total("live.stall_max_ms") {
        ctx.set("live.stall_max_ms", max_ms);
    }
}

/// Byte accounting of a round's index, created empty when the process's
/// WAL byte counter read `wal0`: the store file is append-only between
/// compactions, so its length is the bytes written to it, manifests and
/// checksum tables included.
fn record_layout(ctx: &mut Ctx, st: &LiveStats, acked_items: usize, wal0: u64) {
    let written = st.store_file_bytes + (counters().wal_bytes - wal0);
    ctx.push(
        "write_amp",
        written as f64 / (acked_items as f64 * ITEM_BYTES),
    );
    ctx.push(
        "space_amp",
        (st.store_file_bytes + st.wal_bytes) as f64 / (st.live as f64 * ITEM_BYTES),
    );
    ctx.set(
        "store.garbage_mb",
        st.store_garbage_bytes as f64 / (1 << 20) as f64,
    );
    ctx.set(
        "store.file_mb",
        st.store_file_bytes as f64 / (1 << 20) as f64,
    );
    ctx.set("live.tombstones_end", st.tombstones as f64);
}

/// Drop without flush → `open` → first window answer, [`REOPENS`]
/// times; records their median and returns the last handle. The run's
/// first restart is checked: length and the full-window id multiset must
/// equal exactly the acked set.
fn reopen(ctx: &mut Ctx, spec: &Spec, dir: &Path) -> Run<LiveIndex<2>> {
    let check = ctx.series("reopen_ms").is_empty();
    let mut ms = Vec::with_capacity(REOPENS);
    let mut last = None;
    for q in &gen::restart_probes(1e-4, REOPENS) {
        drop(last.take());
        let (live, open_ns) = ctx.op(Layer::Live, "open", || LiveIndex::<2>::open(dir, opts()))?;
        let (_, first_ns) = ctx.op(Layer::Live, "first_window", || live.window(q))?;
        ms.push((open_ns + first_ns) / 1e6);
        if check && last.is_none() {
            let truth = spec.truth();
            ctx.check(live.len() == truth.len() as u64, || {
                format!("reopened len {} != acked {}", live.len(), truth.len())
            });
            let everything = Rect::xyxy(f64::MIN, f64::MIN, f64::MAX, f64::MAX);
            let ((got, _), _) = ctx.op(Layer::Live, "full_window", || live.window(&everything))?;
            query::check_same_ids(ctx, "after reopen", &got, truth);
        }
        last = Some(live);
    }
    ctx.push("reopen_ms", stats::median(&ms));
    last.ok_or_else(|| Failure("reopen count must be positive".into()))
}

/// `compact()`: every item through one bulk load into a fresh store
/// file — the durable index's "build".
fn compact(ctx: &mut Ctx, live: &LiveIndex<2>, items: usize) -> Run<()> {
    let pages0 = live_stats(ctx, live)?.store_pages_written;
    let ios0 = counters().em_ios;
    let ((), ns) = ctx.op(Layer::Live, "compact", || live.compact())?;
    let pages = live_stats(ctx, live)?.store_pages_written - pages0;
    ctx.push("build_items_per_s", items as f64 / (ns / 1e9));
    ctx.push("build_block_ios", (counters().em_ios - ios0 + pages) as f64);
    ctx.push("compact_s", ns / 1e9);
    Ok(())
}

/// After the rounds: the oracle on the last round's index, the paper's
/// worst case through the durable path, then a small fail-any-I/O
/// torture sweep — torn writes and EIO at strided ops, recovered
/// contents checked against the acked set, so unflushed bytes are really
/// discarded rather than saved by the OS cache.
pub fn finish(ctx: &mut Ctx, spec: &Spec, dir: &Scratch, bufs: &mut Bufs) -> Run<()> {
    let path = dir.path().join("index");
    let (live, _) = ctx.op(Layer::Live, "open", || LiveIndex::<2>::open(&path, opts()))?;
    let snap = live.snapshot();
    query::verify(
        ctx,
        &snap,
        spec.truth(),
        &spec.windows[..200],
        &spec.points[..50],
        bufs,
    )?;
    drop((snap, live));
    worst_case(ctx, dir, bufs)?;

    let torture_dir = dir.path().join("torture");
    std::fs::create_dir_all(&torture_dir).map_err(|e| Failure(e.to_string()))?;
    let cfg = TortureConfig {
        seed: ctx.cfg.seed,
        stride: 7,
        ..TortureConfig::small(&torture_dir, Durability::Fsync)
    };
    // An invariant violation panics inside the harness; that is a
    // failed op here, not a crashed benchmark.
    let (outcome, _) = ctx.op_ok(Layer::Live, "torture_sweep", || {
        std::panic::catch_unwind(|| run_torture(&cfg))
    });
    match outcome {
        Ok(Ok(report)) => {
            println!(
                "  torture sweep: {} runs over {} I/O ops, {} faults fired, all recovered exactly the acked set",
                report.runs, report.total_ops, report.injected
            );
            ctx.check(report.runs > 0 && report.injected > 0, || {
                "torture sweep injected nothing".into()
            });
        }
        Ok(Err(e)) => ctx.check(false, || format!("torture sweep error: {e}")),
        Err(_) => ctx.check(false, || "torture sweep invariant violated".into()),
    }
    Ok(())
}

/// `worst_case_leaf_io` through the durable path: the Theorem-3 grid
/// ingested into a fresh index and compacted (the index's own bulk
/// load), then the empty lines through a snapshot.
fn worst_case(ctx: &mut Ctx, dir: &Scratch, bufs: &mut Bufs) -> Run<()> {
    let k = if ctx.cfg.quick { GRID_K - 4 } else { GRID_K };
    let grid = worst_case_grid(k, GRID_B);
    let lines = gen::grid_lines(k, GRID_B, ctx.cfg.scaled(2000), ctx.cfg.seed);
    let live = create(ctx, &dir.path().join("grid"))?;
    ingest(ctx, &live, &grid, &mut Vec::new())?;
    ctx.op(Layer::Live, "compact", || live.compact())?;
    let snap = live.snapshot();
    query::line_pass(ctx, &snap, &lines, grid.len(), bufs)
}

/// Traced run only — ladder rung (c): a freshly compacted,
/// one-component index of the base set against (b) the same items
/// bulk-loaded, saved and reopened through `Store::open_tree`; (c − b)
/// per query is what the live layer's snapshot fan-out costs on top of
/// the store.
pub fn ladder(ctx: &mut Ctx, spec: &Spec, dir: &Scratch, bufs: &mut Bufs) -> Run<()> {
    let base = &spec.pool[..spec.base];
    let live = create(ctx, &dir.path().join("ladder"))?;
    ingest(ctx, &live, base, &mut Vec::new())?;
    ctx.op(Layer::Live, "compact", || live.compact())?;
    let p = params();
    let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(p.page_size));
    let input = base.to_vec();
    let (mem_tree, _) = ctx.op(Layer::Tree, "bulk_load_mem", || {
        PrTreeLoader::default().load(dev, p, input)
    })?;
    ctx.op(Layer::Tree, "warm_cache", || mem_tree.warm_cache())?;
    let path = dir.path().join("ladder.prt");
    ctx.op(Layer::Store, "save", || {
        Store::create::<2>(&path, p)?.save(&mem_tree)
    })?;
    let (store_tree, _) = ctx.op(Layer::Store, "open_tree", || Store::open_tree::<2>(&path))?;
    ctx.op(Layer::Tree, "warm_cache", || store_tree.warm_cache())?;
    let windows = &spec.windows[..];
    let (_, b_query) = probes::store_ladder(ctx, &mem_tree, &store_tree, &path, windows, bufs)?;
    let snap = live.snapshot();
    ctx.check(snap.num_components() == 1, || {
        format!(
            "ladder expects one component, found {}",
            snap.num_components()
        )
    });
    let mut c_query = Vec::new();
    for _ in 0..4 {
        let mut ns = 0.0;
        for q in windows {
            ns += ctx
                .op(Layer::Live, "window", || {
                    snap.window_q(q, &mut bufs.scratch, &mut bufs.items)
                })?
                .1;
        }
        c_query.push(ns / windows.len() as f64);
    }
    // First pass fills the leaf cache; the median of the rest is warm.
    ctx.set(
        "live.fanout_overhead_ns",
        stats::median(&c_query[1..]) - b_query,
    );
    let _ = std::fs::remove_file(&path);
    Ok(())
}

//! The two static-index workloads — `static_hot`, `store_static` — one
//! lifecycle, two regimes.
//!
//! A static-index user bulk-loads, persists, reopens, queries, and (the
//! paper's §4 answer to updates) inserts through the logarithmic
//! method. Every round of the measured phase walks that lifecycle once,
//! on the same inputs, so rounds are repetitions of identical work;
//! what differs per workload is the query shape, the loader, and
//! whether queries and inserts run against memory or files — which is
//! what moves the work between layers. After the rounds the workload's
//! own loader builds the paper's Theorem-3 grid and the empty line
//! queries through it are counted (`worst_case_leaf_io`).

use crate::ctx::{Config, Ctx, Run};
use crate::gen;
use crate::host::Scratch;
use crate::probes;
use crate::query::{self, Bufs, Queryable};
use crate::spans::Layer;
use crate::stats;
use prtree::data::worst_case_grid;
use prtree::em::{BlockDevice, FileDevice, IoStats, MemDevice, Stream};
use prtree::geom::{Item, Point, Rect};
use prtree::store::Store;
use prtree::tree::bulk::external::ExternalConfig;
use prtree::tree::bulk::pr::PrTreeLoader;
use prtree::tree::bulk::pr_external::PrExternalLoader;
use prtree::tree::bulk::BulkLoader;
use prtree::tree::dynamic::LprTree;
use prtree::tree::{Entry, RTree, TreeParams};
use std::path::Path;
use std::sync::Arc;

/// Bytes of user data per item (`Item<2>`: four `f64` + a `u32` id).
pub const ITEM_BYTES: f64 = 36.0;
/// Items per write call, all workloads.
pub const BATCH: usize = 512;
/// The Theorem-3 grid behind `worst_case_leaf_io`: 2^12 columns × 113
/// rows = 462 848 points.
pub const GRID_K: u32 = 12;
pub const GRID_B: u32 = 113;

/// One regime of the static lifecycle.
pub struct Spec {
    pub items: Vec<Item<2>>,
    /// Windows of one pass.
    pub windows: Vec<Rect<2>>,
    /// k-NN points of one pass.
    pub points: Vec<Point<2>>,
    /// Items the logarithmic-method ingest inserts, in order.
    pub ingest: Vec<Item<2>>,
    /// `Some(M)`: build with the external loader under `M` bytes and
    /// count `Store::save` into the build (the product is the file).
    pub external_memory: Option<usize>,
    /// Queries run against the `Store::open_tree` handle (else the
    /// in-memory tree).
    pub via_store: bool,
    /// The ingest's block device is a file (else memory).
    pub file_ingest: bool,
    /// Contrast with the packed Hilbert R-tree on the Theorem-3 grid in
    /// the traced run (the grid is built to break it).
    pub hilbert_contrast: bool,
    /// Query passes per round.
    pub passes: usize,
    /// The first window after each of a round's restarts
    /// ([`gen::restart_probes`]).
    pub restart_probes: Vec<Rect<2>>,
}

/// `static_hot`: 500 k TIGER-profile rectangles, everything in memory;
/// 4 000 windows of 0.01 % area (~50 results, a handful of leaves:
/// traversal-bound) + 1 000 k-NN per pass. 18 MB of leaves — out of the
/// 4 MiB L2, no file under the queries.
pub fn static_hot(c: &Config) -> Spec {
    let items = gen::tiger(c.scaled(500_000));
    Spec {
        windows: gen::windows(1e-4, c.scaled(4000), c.seed),
        points: gen::knn_points(&items, c.scaled(1000), c.seed),
        ingest: ingest_order(&items, c),
        items,
        external_memory: None,
        via_store: false,
        file_ingest: false,
        hilbert_contrast: true,
        passes: 3,
        restart_probes: gen::restart_probes(1e-4, 20),
    }
}

/// `store_static`: the same generator through the external loader under
/// a 2 MiB budget (18 MB of data: a real multi-pass external sort
/// through `pr_em` streams), saved, reopened through mmap, queried with
/// 1 %-area windows (~5 k results, ~65 leaves: output-bound).
pub fn store_static(c: &Config) -> Spec {
    let items = gen::tiger(c.scaled(500_000));
    Spec {
        windows: gen::windows(1e-2, c.scaled(2000), c.seed),
        points: gen::knn_points(&items, c.scaled(500), c.seed),
        ingest: ingest_order(&items, c),
        items,
        external_memory: Some(if c.quick { 256 << 10 } else { 2 << 20 }),
        via_store: true,
        file_ingest: true,
        hilbert_contrast: false,
        passes: 2,
        restart_probes: gen::restart_probes(1e-2, 20),
    }
}

/// The items the logarithmic-method ingest inserts: 102 400 of the data
/// set, in seeded order.
fn ingest_order(items: &[Item<2>], c: &Config) -> Vec<Item<2>> {
    let mut order = gen::shuffled(items.to_vec(), c.seed);
    order.truncate(c.scaled(102_400));
    order
}

/// What set-up leaves for the measured phase.
pub struct Prepared {
    pub spec: Spec,
    /// The bulk-loaded tree on its `MemDevice`.
    pub mem_tree: RTree<2>,
    /// The same tree through `Store::open_tree` on `store_path`.
    pub store_tree: RTree<2>,
    pub store_path: std::path::PathBuf,
    /// Block I/O of the set-up build.
    pub build_io: IoStats,
    pub store_file_bytes: u64,
    /// Throughput of the set-up `Store::save`, MB/s.
    pub save_mb_per_s: f64,
}

impl Prepared {
    /// The tree the workload's queries run against.
    pub fn query_tree(&self) -> &RTree<2> {
        if self.spec.via_store {
            &self.store_tree
        } else {
            &self.mem_tree
        }
    }
}

fn params() -> TreeParams {
    TreeParams::paper_2d()
}

/// One bulk load of `items` with the workload's loader, call →
/// queryable tree; for the external regime the tree is also saved to
/// `save_to` and that counts. Returns the tree, its block I/O and the
/// seconds.
fn build(
    ctx: &mut Ctx,
    items: &[Item<2>],
    external_memory: Option<usize>,
    save_to: Option<&Path>,
) -> Run<(RTree<2>, IoStats, f64)> {
    let p = params();
    let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(p.page_size));
    let (tree, io, mut ns) = match external_memory {
        None => {
            let input = items.to_vec();
            let (tree, ns) = ctx.op(Layer::Tree, "bulk_load_mem", || {
                PrTreeLoader::default().load(Arc::clone(&dev), p, input)
            })?;
            (tree, dev.io_stats(), ns)
        }
        Some(memory) => {
            // Writing the input stream is the caller's data arriving,
            // not part of the load (as in the paper's accounting).
            let (input, _) = ctx.op(Layer::Em, "stream_write", || {
                Stream::from_iter(
                    dev.as_ref(),
                    items.iter().map(|&i| Entry::<2>::from_item(i)),
                )
            })?;
            let before = dev.io_stats();
            let (tree, ns) = ctx.op(Layer::Tree, "bulk_load_ext", || {
                PrExternalLoader::new(ExternalConfig::with_memory(memory)).load::<2>(
                    Arc::clone(&dev),
                    p,
                    &input,
                )
            })?;
            ctx.push("ext_load_s", ns / 1e9);
            (tree, dev.io_stats().since(before), ns)
        }
    };
    if let (Some(path), true) = (save_to, external_memory.is_some()) {
        ns += save(ctx, &tree, path)?.1;
    }
    Ok((tree, io, ns / 1e9))
}

/// `Store::create` + `Store::save`; returns the file length and the ns.
fn save(ctx: &mut Ctx, tree: &RTree<2>, path: &Path) -> Run<(u64, f64)> {
    let _ = std::fs::remove_file(path);
    let (len, ns) = ctx.op(Layer::Store, "save", || {
        let mut store = Store::create::<2>(path, params())?;
        store.save(tree)?;
        store.file_len()
    })?;
    Ok((len, ns))
}

/// Restart → first answer: `Store::open_tree` on a fresh handle, then
/// one window. (OS page cache warm: this is the sandbox's number.)
/// Returns the handle and the milliseconds.
fn reopen(ctx: &mut Ctx, path: &Path, q: &Rect<2>, bufs: &mut Bufs) -> Run<(RTree<2>, f64)> {
    let (tree, open_ns) = ctx.op(Layer::Store, "open_tree", || Store::open_tree::<2>(path))?;
    let (_, first_ns) = ctx.op(Layer::Tree, "first_window", || {
        tree.window_q(q, &mut bufs.scratch, &mut bufs.items)
    })?;
    ctx.push("open_us", open_ns / 1e3);
    Ok((tree, (open_ns + first_ns) / 1e6))
}

/// Logarithmic-method ingest into a fresh `LprTree`, [`BATCH`] inserts
/// per timed call.
fn ingest(ctx: &mut Ctx, spec: &Spec, dir: &Path, record: bool) -> Run<()> {
    let p = params();
    let dev: Arc<dyn BlockDevice> = if spec.file_ingest {
        let path = dir.join("lpr.dev");
        let _ = std::fs::remove_file(&path);
        let (d, _) = ctx.op(Layer::Em, "file_device_create", || {
            FileDevice::create(&path, p.page_size)
        })?;
        Arc::new(d)
    } else {
        Arc::new(MemDevice::new(p.page_size))
    };
    let mut lpr = LprTree::<2>::new(dev, p, 1024);
    let mut lat = Vec::with_capacity(spec.ingest.len() / BATCH + 1);
    for chunk in spec.ingest.chunks(BATCH) {
        let ((), ns) = ctx.op(Layer::Tree, "lpr_insert_batch", || {
            chunk.iter().try_for_each(|it| lpr.insert(*it))
        })?;
        lat.push(ns);
    }
    ctx.check(lpr.len() == spec.ingest.len() as u64, || {
        format!("LprTree holds {} of {}", lpr.len(), spec.ingest.len())
    });
    if record {
        let total_ns: f64 = lat.iter().sum();
        stats::sort(&mut lat);
        ctx.push(
            "ingest_items_per_s",
            spec.ingest.len() as f64 / (total_ns / 1e9),
        );
        ctx.push("ingest_batch_p99_us", stats::percentile(&lat, 99.0) / 1e3);
    }
    Ok(())
}

/// Set-up: generate, build, persist, reopen, warm every timed path once.
pub fn setup(ctx: &mut Ctx, make: fn(&Config) -> Spec, dir: &Scratch) -> Run<Prepared> {
    let cfg = ctx.cfg.clone();
    let (spec, _) = ctx.op_ok(Layer::Driver, "generate", || make(&cfg));
    let store_path = dir.path().join("index.prt");
    let (mem_tree, build_io, _) = build(ctx, &spec.items, spec.external_memory, None)?;
    ctx.op(Layer::Tree, "warm_cache", || mem_tree.warm_cache())?;
    let (store_file_bytes, save_ns) = save(ctx, &mem_tree, &store_path)?;
    let mut bufs = Bufs::default();
    let (store_tree, _) = reopen(ctx, &store_path, &spec.windows[0], &mut bufs)?;
    ctx.op(Layer::Tree, "warm_cache", || store_tree.warm_cache())?;
    let prepared = Prepared {
        spec,
        mem_tree,
        store_tree,
        store_path,
        build_io,
        store_file_bytes,
        save_mb_per_s: store_file_bytes as f64 / 1e6 / (save_ns / 1e9),
    };
    // One discarded pass of every timed call.
    let spec = &prepared.spec;
    query::warm(
        ctx,
        prepared.query_tree(),
        &spec.windows,
        &spec.points,
        &mut bufs,
    )?;
    ingest(ctx, spec, dir.path(), false)?;
    Ok(prepared)
}

/// One measured round: build, query passes, ingest, reopens.
pub fn round(ctx: &mut Ctx, p: &Prepared, dir: &Scratch, bufs: &mut Bufs) -> Run<()> {
    let round_file = dir.path().join("round.prt");
    let (tree, io, secs) = build(
        ctx,
        &p.spec.items,
        p.spec.external_memory,
        Some(&round_file),
    )?;
    ctx.check(tree.len() == p.spec.items.len() as u64, || {
        format!("built tree holds {} items", tree.len())
    });
    drop(tree);
    ctx.push("build_items_per_s", p.spec.items.len() as f64 / secs);
    ctx.push("build_block_ios", io.total() as f64);
    for _ in 0..p.spec.passes {
        query::window_pass(ctx, p.query_tree(), &p.spec.windows, bufs)?;
        query::knn_pass(ctx, p.query_tree(), &p.spec.points, bufs)?;
    }
    ingest(ctx, &p.spec, dir.path(), true)?;
    let mut reopen_ms = Vec::with_capacity(p.spec.restart_probes.len());
    for q in &p.spec.restart_probes {
        reopen_ms.push(reopen(ctx, &p.store_path, q, bufs)?.1);
    }
    ctx.push("reopen_ms", stats::median(&reopen_ms));
    Ok(())
}

/// After the rounds: the oracle, and the size/byte accounting.
pub fn finish(ctx: &mut Ctx, p: &Prepared, bufs: &mut Bufs) -> Run<()> {
    let sample_w = &p.spec.windows[..p.spec.windows.len().min(200)];
    let sample_p = &p.spec.points[..p.spec.points.len().min(50)];
    query::verify(ctx, p.query_tree(), &p.spec.items, sample_w, sample_p, bufs)?;
    ctx.check(p.store_tree.len() == p.spec.items.len() as u64, || {
        format!("reopened tree holds {} items", p.store_tree.len())
    });
    let user_bytes = p.spec.items.len() as f64 * ITEM_BYTES;
    let page = params().page_size as f64;
    // Bytes that reached a device per user byte: the build's block
    // writes plus the saved file.
    ctx.set(
        "write_amp",
        (p.build_io.writes as f64 * page + p.store_file_bytes as f64) / user_bytes,
    );
    ctx.set("space_amp", p.store_file_bytes as f64 / user_bytes);
    worst_case(ctx, &p.spec, bufs)
}

/// `worst_case_leaf_io`: the workload's own loader on the Theorem-3
/// shifted grid, then seeded empty horizontal lines — zero output, cost
/// is pure traversal, and the paper bounds it by O(√(N/B)). A faster
/// loader or a cache heuristic that breaks the priority-leaf structure
/// moves this count while every timing still looks fine.
fn worst_case(ctx: &mut Ctx, spec: &Spec, bufs: &mut Bufs) -> Run<()> {
    let k = if ctx.cfg.quick { GRID_K - 4 } else { GRID_K };
    let grid = worst_case_grid(k, GRID_B);
    let lines = gen::grid_lines(k, GRID_B, ctx.cfg.scaled(2000), ctx.cfg.seed);
    let (tree, _, _) = build(ctx, &grid, spec.external_memory, None)?;
    ctx.op(Layer::Tree, "warm_cache", || tree.warm_cache())?;
    query::line_pass(ctx, &tree, &lines, grid.len(), bufs)?;
    if ctx.cfg.trace && spec.hilbert_contrast {
        probes::hilbert_contrast(ctx, &grid, &lines)?;
    }
    Ok(())
}

/// Traced run only: the static per-layer probes.
pub fn layer_probes(ctx: &mut Ctx, p: &Prepared, dir: &Scratch, bufs: &mut Bufs) -> Run<()> {
    let (structure, _) = ctx.op(Layer::Tree, "stats", || p.mem_tree.stats())?;
    ctx.set("tree.leaf_utilization", structure.leaf_utilization());
    if p.spec.external_memory.is_none() {
        ctx.set(
            "tree.bulk_pr_mem_items_per_s",
            ctx.median("build_items_per_s"),
        );
    } else {
        let s = ctx.median("ext_load_s");
        ctx.set(
            "tree.bulk_pr_ext_items_per_s",
            p.spec.items.len() as f64 / s,
        );
        ctx.set("tree.bulk_pr_ext_block_ios", ctx.median("build_block_ios"));
    }
    ctx.set(
        "tree.lpr_insert_items_per_s",
        ctx.median("ingest_items_per_s"),
    );
    ctx.set("store.save_mb_per_s", p.save_mb_per_s);
    ctx.set("store.open_us", ctx.median("open_us"));
    ctx.set(
        "store.file_mb",
        p.store_file_bytes as f64 / (1 << 20) as f64,
    );
    probes::count_vs_report(ctx, p.query_tree(), &p.spec.windows, bufs)?;
    probes::store_ladder(
        ctx,
        &p.mem_tree,
        &p.store_tree,
        &p.store_path,
        &p.spec.windows,
        bufs,
    )?;
    if let Some(memory) = p.spec.external_memory {
        probes::em_sort(ctx, &p.spec.items, memory)?;
        probes::cli(ctx, p.spec.items.len(), &p.spec.windows[0], dir.path())?;
    }
    Ok(())
}

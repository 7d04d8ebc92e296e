//! Per-layer probes of the traced run: small, fixed measurements of one
//! layer's public functions, and the differencing ladder — the same
//! queries through (a) the tree on a `MemDevice`, (b) the same tree via
//! `Store::open_tree`, (c) the same items in a compacted one-component
//! `LiveIndex` — so (b − a) is the store's read path and (c − b) is
//! live's fan-out. Each probe sets the per-layer metric it measures.

use crate::ctx::{Ctx, Failure, Run};
use crate::gen;
use crate::host;
use crate::query::{self, Bufs, Queryable};
use crate::spans::Layer;
use crate::stats;
use prtree::em::{external_sort_by, BlockDevice, MemDevice, PositionedFile, SortConfig, Stream};
use prtree::geom::batch::intersects_mask;
use prtree::geom::{Item, Rect};
use prtree::hilbert::HilbertMapper;
use prtree::store::{ReadPath, Store};
use prtree::tree::bulk::hilbert::HilbertLoader;
use prtree::tree::bulk::BulkLoader;
use prtree::tree::{Entry, RTree, SoaNode, TreeParams};
use rand::Rng;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Median ns of `reps` runs of `f`, each covering `unit` elements,
/// per element.
fn median_ns_per(reps: usize, units: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / units as f64
        })
        .collect();
    stats::median(&samples)
}

/// `geom.intersect_ns_per_rect`: the batch intersection kernel over one
/// full 113-entry SoA node — the inner loop of every window query.
pub fn geom_kernel(ctx: &mut Ctx) {
    let mut rng = gen::rng(ctx.cfg.seed, 20);
    let items: Vec<Item<2>> = (0..query::leaf_cap() as u32)
        .map(|i| {
            let (x, y): (f64, f64) = (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
            Item::new(Rect::xyxy(x, y, x + 0.01, y + 0.01), i)
        })
        .collect();
    let node = SoaNode::<2>::from_page(&prtree::tree::page::NodePage::new(
        0,
        items.iter().map(|&i| Entry::from_item(i)).collect(),
    ));
    let q = Rect::xyxy(0.25, 0.25, 0.75, 0.75);
    let mut mask = vec![0u8; node.len()];
    let iters = 20_000;
    let (ns, _) = ctx.op_ok(Layer::Driver, "probe_geom_kernel", || {
        median_ns_per(9, iters * node.len(), || {
            for _ in 0..iters {
                intersects_mask(&node.lo_dims(), &node.hi_dims(), black_box(&q), &mut mask);
                black_box(&mask);
            }
        })
    });
    ctx.set("geom.intersect_ns_per_rect", ns);
}

/// `hilbert.encode_ns`: one 2-D Hilbert index (baseline loaders only —
/// the PR-tree never calls it).
pub fn hilbert_encode(ctx: &mut Ctx) {
    let mapper = HilbertMapper::new(&[0.0, 0.0], &[1.0, 1.0], 16);
    let mut rng = gen::rng(ctx.cfg.seed, 21);
    let pts: Vec<[f64; 2]> = (0..4096)
        .map(|_| [rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)])
        .collect();
    let (ns, _) = ctx.op_ok(Layer::Driver, "probe_hilbert_encode", || {
        median_ns_per(9, pts.len(), || {
            for p in &pts {
                black_box(mapper.index_of(black_box(p)));
            }
        })
    });
    ctx.set("hilbert.encode_ns", ns);
}

/// `em.sort_*`: `external_sort_by` of the workload's entries by lower x
/// under `memory_bytes` on a `MemDevice`.
pub fn em_sort(ctx: &mut Ctx, items: &[Item<2>], memory_bytes: usize) -> Run<()> {
    let dev = MemDevice::new(TreeParams::paper_2d().page_size);
    let (input, _) = ctx.op(Layer::Em, "stream_write", || {
        Stream::from_iter(&dev, items.iter().map(|&i| Entry::<2>::from_item(i)))
    })?;
    let before = dev.io_stats();
    let (sorted, ns) = ctx.op(Layer::Em, "external_sort", || {
        external_sort_by::<Entry<2>, _>(
            &dev,
            &input,
            SortConfig::with_memory(memory_bytes),
            |a, b| a.rect.lo_at(0).total_cmp(&b.rect.lo_at(0)),
        )
    })?;
    ctx.check(sorted.len() == items.len() as u64, || {
        format!("sorted stream holds {} records", sorted.len())
    });
    ctx.set("em.sort_items_per_s", items.len() as f64 / (ns / 1e9));
    ctx.set(
        "em.sort_block_ios",
        dev.io_stats().since(before).total() as f64,
    );
    Ok(())
}

/// `em.fsync_p50_us`: a 20 KiB positioned append (one 512-item WAL
/// group) + `sync_data`, the floor under every acked write batch.
pub fn em_fsync(ctx: &mut Ctx, dir: &Path) -> Run<()> {
    let path = dir.join("fsync.probe");
    let file = std::fs::File::create(&path).map_err(|e| Failure(e.to_string()))?;
    let file = PositionedFile::new(file);
    let buf = vec![0xA5u8; 20 << 10];
    let mut lat = Vec::new();
    for i in 0..200u64 {
        let ((), ns) = ctx.op(Layer::Em, "append_fsync", || {
            file.write_all_at(&buf, i * buf.len() as u64)?;
            file.sync_data()
        })?;
        lat.push(ns / 1e3);
    }
    let _ = std::fs::remove_file(&path);
    ctx.set("em.fsync_p50_us", stats::median(&lat));
    Ok(())
}

/// Sum of call ns and leaves over one untimed-for-latency pass.
fn pass_cost<Q: Queryable>(
    ctx: &mut Ctx,
    idx: &Q,
    windows: &[Rect<2>],
    bufs: &mut Bufs,
) -> Run<(f64, f64)> {
    let (mut ns, mut leaves) = (0.0, 0.0);
    for q in windows {
        let (st, t) = ctx.op(Q::LAYER, "window", || {
            idx.window_q(q, &mut bufs.scratch, &mut bufs.items)
        })?;
        ns += t;
        leaves += st.leaves_visited as f64;
    }
    Ok((ns, leaves.max(1.0)))
}

/// Median over three passes of [`pass_cost`]'s ns per leaf, plus the
/// per-query ns of the same passes.
fn warm_cost<Q: Queryable>(
    ctx: &mut Ctx,
    idx: &Q,
    windows: &[Rect<2>],
    bufs: &mut Bufs,
) -> Run<(f64, f64)> {
    let mut per_leaf = Vec::new();
    let mut per_query = Vec::new();
    for _ in 0..3 {
        let (ns, leaves) = pass_cost(ctx, idx, windows, bufs)?;
        per_leaf.push(ns / leaves);
        per_query.push(ns / windows.len() as f64);
    }
    Ok((stats::median(&per_leaf), stats::median(&per_query)))
}

/// `tree.count_vs_report_ns`: what materializing results costs per
/// query — `window_into` minus `window_count_into`.
pub fn count_vs_report(
    ctx: &mut Ctx,
    tree: &RTree<2>,
    windows: &[Rect<2>],
    bufs: &mut Bufs,
) -> Run<()> {
    let (_, report_ns) = warm_cost(ctx, tree, windows, bufs)?;
    let mut count_ns = Vec::new();
    for _ in 0..3 {
        let mut ns = 0.0;
        for q in windows {
            ns += ctx
                .op(Layer::Tree, "window_count", || {
                    tree.window_count_into(q, &mut bufs.scratch)
                })?
                .1;
        }
        count_ns.push(ns / windows.len() as f64);
    }
    ctx.set(
        "tree.count_vs_report_ns",
        report_ns - stats::median(&count_ns),
    );
    Ok(())
}

/// Ladder rungs (a) and (b), plus the store's cold and paranoid read
/// paths: `store.read_overhead_ns_per_leaf` (b − a),
/// `store.first_touch_ns_per_leaf` (fresh handle: mmap faults + the
/// verify-once CRC), `store.recheck_ns_per_leaf` (`ReadPath::Recheck`:
/// positioned read + CRC on every visit).
pub fn store_ladder(
    ctx: &mut Ctx,
    mem_tree: &RTree<2>,
    store_tree: &RTree<2>,
    store_path: &Path,
    windows: &[Rect<2>],
    bufs: &mut Bufs,
) -> Run<(f64, f64)> {
    // About 20 000 leaf visits per pass, whatever the query shape: the
    // recheck path costs ~12 µs a leaf.
    let per_query = ctx.ratio("window_leaves", "window_queries").max(1.0);
    let n = ((20_000.0 / per_query) as usize).clamp(100, 2000);
    let windows = &windows[..windows.len().min(n)];
    let (a, _) = warm_cost(ctx, mem_tree, windows, bufs)?;
    let (b, b_query) = warm_cost(ctx, store_tree, windows, bufs)?;
    ctx.set("store.read_overhead_ns_per_leaf", b - a);

    let (fresh, _) = ctx.op(Layer::Store, "open_tree", || {
        Store::open_tree::<2>(store_path)
    })?;
    ctx.op(Layer::Tree, "warm_cache", || fresh.warm_cache())?;
    let (ns, leaves) = pass_cost(ctx, &fresh, windows, bufs)?;
    ctx.set("store.first_touch_ns_per_leaf", ns / leaves - b);

    let (recheck, _) = ctx.op(Layer::Store, "open_recheck", || {
        Store::open(store_path)?.tree_with::<2>(ReadPath::Recheck)
    })?;
    ctx.op(Layer::Tree, "warm_cache", || recheck.warm_cache())?;
    let (r, _) = warm_cost(ctx, &recheck, windows, bufs)?;
    ctx.set("store.recheck_ns_per_leaf", r - b);
    Ok((b, b_query))
}

/// `tree.hilbert_leaf_io` of `tree.total_leaves` on the worst-case grid:
/// the packed Hilbert R-tree visits (nearly) every leaf for the same
/// empty lines.
pub fn hilbert_contrast(ctx: &mut Ctx, items: &[Item<2>], lines: &[Rect<2>]) -> Run<()> {
    let p = TreeParams::paper_2d();
    let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(p.page_size));
    let input = items.to_vec();
    let (tree, _) = ctx.op(Layer::Tree, "bulk_load_hilbert", || {
        HilbertLoader::centers().load(dev, p, input)
    })?;
    ctx.op(Layer::Tree, "warm_cache", || tree.warm_cache())?;
    let (structure, _) = ctx.op(Layer::Tree, "stats", || tree.stats())?;
    ctx.set("tree.total_leaves", structure.num_leaves() as f64);
    let sample = &lines[..lines.len().min(100)];
    let mut bufs = Bufs::default();
    let (_, leaves) = pass_cost(ctx, &tree, sample, &mut bufs)?;
    ctx.set("tree.hilbert_leaf_io", leaves / sample.len() as f64);
    Ok(())
}

/// `cli.*`: the process-level view — spawn the `prtree` binary to build
/// a store file of `n` TIGER-east items (the CLI only builds from its
/// own generators) and to answer one window on it, each timed spawn →
/// exit.
pub fn cli(ctx: &mut Ctx, n: usize, q: &Rect<2>, dir: &Path) -> Run<()> {
    let Some(bin) = prtree_binary() else {
        eprintln!("note: prtree binary unavailable; cli.* metrics read 0");
        return Ok(());
    };
    let index = dir.join("cli.prt");
    let run = |args: &[&str]| -> Result<(), String> {
        let out = std::process::Command::new(&bin)
            .args(args)
            .output()
            .map_err(|e| e.to_string())?;
        if out.status.success() {
            Ok(())
        } else {
            Err(String::from_utf8_lossy(&out.stderr).into_owned())
        }
    };
    let index_arg = index.to_string_lossy().into_owned();
    let (n, seed) = (n.to_string(), ctx.cfg.seed.to_string());
    let window = format!(
        "{},{},{},{}",
        q.lo_at(0),
        q.lo_at(1),
        q.hi_at(0),
        q.hi_at(1)
    );
    let mut build_s = Vec::new();
    let mut query_ms = Vec::new();
    for _ in 0..3 {
        let _ = std::fs::remove_file(&index);
        let ((), ns) = ctx.op(Layer::Driver, "spawn_prtree_build", || {
            run(&[
                "build",
                "--out",
                &index_arg,
                "--data",
                "tiger-east",
                "--n",
                &n,
                "--seed",
                &seed,
            ])
        })?;
        build_s.push(ns / 1e9);
        for _ in 0..5 {
            let ((), ns) = ctx.op(Layer::Driver, "spawn_prtree_query", || {
                run(&["query", &index_arg, "--window", &window])
            })?;
            query_ms.push(ns / 1e6);
        }
    }
    ctx.set("cli.build_s", stats::median(&build_s));
    ctx.set("cli.query_cold_ms", stats::median(&query_ms));
    Ok(())
}

/// Builds (once per checkout) and locates the `prtree` CLI binary next
/// to this one: `cargo build --bin prtree` in the checkout root, into
/// the same target directory this benchmark was built into.
fn prtree_binary() -> Option<std::path::PathBuf> {
    let target = std::env::current_exe()
        .ok()?
        .parent()?
        .parent()?
        .to_path_buf();
    let bin = target.join("release").join("prtree");
    if !bin.exists() {
        let status = std::process::Command::new("cargo")
            .args([
                "build",
                "--release",
                "--offline",
                "--quiet",
                "--bin",
                "prtree",
            ])
            .arg("--manifest-path")
            .arg(host::repo_root().join("Cargo.toml"))
            .arg("--target-dir")
            .arg(&target)
            .stdout(std::process::Stdio::null())
            .status()
            .ok()?;
        if !status.success() {
            return None;
        }
    }
    bin.exists().then_some(bin)
}

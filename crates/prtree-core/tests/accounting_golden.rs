//! Accounting golden: what each query kind costs, pinned exactly.
//!
//! A fixed query set per kind — window, k-NN, exact match, leaf scan —
//! runs twice (the second pass repeats the first) on a warmed tree, a
//! cold tree (a second handle on the same pages, admitting internal
//! nodes as it reads them), an `LprTree` holding tombstones and a
//! `LiveSnapshot`. Each row sums the queries' `QueryStats` and the
//! registry's node-cache hits and misses. A leaf scan returns no
//! `QueryStats`: its row holds the items it scanned and its cache pair.
//!
//! The inputs are seeded, so a change that moves any cell — a cache
//! that admits leaves, a k-NN that opens a page past its bound — fails
//! here and prints the whole table, pinned beside current. A deliberate
//! accounting change re-pins it and says by how much each cell moved.
//!
//! A second test pins the write side: `write_amp` and `space_amp` of a
//! scripted `LprTree` insert/delete trace, whose merges bulk-load
//! components of 1 024 to 16 384 items and whose compaction rebuilds
//! everything. The registry is process-global and the trace's deletes
//! probe trees, so the two tests take one lock.

use pr_em::{BlockDevice, MemDevice};
use pr_geom::{Item, Point, Rect};
use pr_live::{LiveIndex, LiveOptions};
use pr_tree::bulk::pr::PrTreeLoader;
use pr_tree::bulk::BulkLoader;
use pr_tree::dynamic::LprTree;
use pr_tree::{QueryScratch, QueryStats, RTree, TreeParams};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex};

/// Held by each test: both move the registry's node-cache counters.
static REGISTRY: Mutex<()> = Mutex::new(());

/// Not reported by this kind (printed `-`).
const NA: u64 = u64::MAX;

/// One line per structure and kind (window, knn, exact, leaf scan):
/// results, nodes, leaves, internal, reads, loose chunks, cache hits,
/// cache misses.
const PINNED: &str = "\
warm window    17850 3624 2196 1428 2196 0   1428 2196
warm knn         800 1448  408 1040  408 0   1040  408
warm exact        80 1290  148 1142  148 0   1142  148
warm leaf_scan 40000 -     -    -    -   -    170 2500
cold window    17850 3624 2196 1428 2281 0   1343 2281
cold knn         800 1448  408 1040  408 0   1040  408
cold exact        80 1290  148 1142  148 0   1142  148
cold leaf_scan 40000 -     -    -    -   -    170 2500
lpr window     16536 5254 2854 2400 2854 80  2400 2854
lpr knn          800 2578  766 1812  766 80  1812  766
lpr exact         80 2472  384 2088  384 0   2088  384
lpr leaf_scan  39936 -     -    -    -   -    172 2496
live window    16536 5174 2806 2368 2806 206 2368 2806
live knn         800 2516  706 1810  706 144 1810  706
live exact        80 2438  320 2118  320 0   2118  320
live leaf_scan 39000 -     -    -    -   -    170 2438
";

/// The fixed query sets: windows of 1% of the unit square, k-NN points
/// (k = 10), and exact-match victims (stored, deleted and absent items).
struct Queries {
    windows: Vec<Rect<2>>,
    points: Vec<Point<2>>,
    victims: Vec<Item<2>>,
}

/// Runs `query` over `set` twice and sums its stats beside the
/// registry's node-cache hits and misses.
fn measure<Q>(set: &[Q], mut query: impl FnMut(&Q) -> QueryStats) -> [u64; 8] {
    let pair = || {
        let snap = pr_obs::global().snapshot();
        let hits = snap.counter("tree_node_cache_hits_total");
        (hits, snap.counter("tree_node_cache_misses_total"))
    };
    let (hits, misses) = pair();
    let mut t = QueryStats::default();
    for q in set.iter().chain(set) {
        let s = query(q);
        t.add_traversal(&s);
        t.results += s.results;
        t.loose_chunks += s.loose_chunks;
    }
    let (hits_now, misses_now) = pair();
    [
        t.results,
        t.nodes_visited,
        t.leaves_visited,
        t.internal_visited,
        t.device_reads,
        t.loose_chunks,
        hits_now - hits,
        misses_now - misses,
    ]
}

/// The four rows of a forest: `window` and `knn` search it whole, an
/// exact probe descends each tree, a leaf scan reads every tree.
fn rows(
    q: &Queries,
    trees: &[&RTree<2>],
    mut window: impl FnMut(&Rect<2>, &mut QueryScratch<2>) -> QueryStats,
    mut knn: impl FnMut(&Point<2>, &mut QueryScratch<2>) -> QueryStats,
) -> [[u64; 8]; 4] {
    let mut scratch = QueryScratch::new();
    [
        measure(&q.windows, |w| window(w, &mut scratch)),
        measure(&q.points, |p| knn(p, &mut scratch)),
        measure(&q.victims, |v| {
            let mut sum = QueryStats::default();
            for tree in trees {
                let s = tree.count_exact(v, &mut scratch).unwrap();
                sum.add_traversal(&s);
                sum.results += s.results;
            }
            sum
        }),
        {
            let mut scan = measure(trees, |tree| {
                let mut s = QueryStats::default();
                tree.for_each_item(|_| s.results += 1).unwrap();
                s
            });
            scan[1..6].fill(NA);
            scan
        },
    ]
}

#[test]
fn query_accounting_is_pinned() {
    let _registry = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let params = TreeParams::with_cap::<2>(16);
    let items = pr_data::synthetic::size_dataset(20_000, 0.01, 11);
    let mut rng = SmallRng::seed_from_u64(37);
    let mut victims: Vec<Item<2>> = (0..40).map(|i| items[i * 487]).collect();
    victims.extend((0..8).map(|i| Item::new(items[i * 911].rect, 20_000 + i as u32)));
    let q = Queries {
        windows: pr_data::queries::square_queries(&Rect::xyxy(0.0, 0.0, 1.0, 1.0), 0.01, 40, 29),
        points: (0..40)
            .map(|_| Point::new([rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)]))
            .collect(),
        victims,
    };
    let (mut out, mut nn) = (Vec::new(), Vec::new());
    let mut current = String::new();
    let mut push = |name: &str, rows: [[u64; 8]; 4]| {
        for (kind, row) in ["window", "knn", "exact", "leaf_scan"].iter().zip(rows) {
            let cells = row.map(|v| if v == NA { "-".into() } else { v.to_string() });
            current += &format!("{name} {kind} {}\n", cells.join(" "));
        }
    };

    let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
    let warm = PrTreeLoader::default()
        .load(Arc::clone(&dev), params, items.clone())
        .unwrap();
    warm.warm_cache().unwrap();
    let cold = RTree::<2>::from_parts(dev, warm.meta()).unwrap();
    for (name, tree) in [("warm", &warm), ("cold", &cold)] {
        let window = |w: &_, s: &mut _| tree.window_into(w, s, &mut out).unwrap();
        let knn = |p: &_, s: &mut _| tree.nearest_neighbors_into(p, 10, s, &mut nn).unwrap();
        push(name, rows(&q, &[tree], window, knn));
    }

    let mut lpr = LprTree::<2>::new(Arc::new(MemDevice::new(params.page_size)), params, 256);
    for &item in &items {
        lpr.insert(item).unwrap();
    }
    for item in items.iter().step_by(7).take(1_500) {
        assert!(lpr.delete(item).unwrap());
    }
    assert!(lpr.num_tombstones() > 0, "the LprTree holds tombstones");
    let window = |w: &_, s: &mut _| lpr.window_into(w, s, &mut out).unwrap();
    let knn = |p: &_, s: &mut _| lpr.nearest_neighbors_into(p, 10, s, &mut nn).unwrap();
    let trees: Vec<_> = lpr.components().collect();
    push("lpr", rows(&q, &trees, window, knn));

    let dir = std::env::temp_dir().join(format!("pr-accounting-golden-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let opts = LiveOptions {
        buffer_cap: 1_024,
        background_merge: false, // deterministic merge points
        ..LiveOptions::default()
    };
    let ix = LiveIndex::<2>::create(&dir, params, opts).unwrap();
    let (stored, fresh) = items.split_at(items.len() - 300);
    for batch in stored.chunks(500) {
        ix.insert_batch(batch).unwrap();
    }
    let victims: Vec<Item<2>> = stored.iter().step_by(7).take(1_500).copied().collect();
    assert_eq!(ix.delete_batch(&victims).unwrap(), victims.len() as u64);
    ix.insert_batch(fresh).unwrap();
    let snap = ix.snapshot();
    assert!(snap.loose_chunks() > 0, "the memtable holds chunks");
    let window = |w: &_, s: &mut _| snap.window_into(w, s, &mut out).unwrap();
    let knn = |p: &_, s: &mut _| snap.nearest_neighbors_into(p, 10, s, &mut nn).unwrap();
    let trees: Vec<_> = snap.components().collect();
    push("live", rows(&q, &trees, window, knn));
    drop((snap, ix));
    std::fs::remove_dir_all(&dir).ok();

    let moved = |(p, c): &(&str, &str)| !p.split_whitespace().eq(c.split_whitespace());
    let lines: Vec<(&str, &str)> = PINNED.lines().zip(current.lines()).collect();
    if lines.len() != PINNED.lines().count() || lines.iter().any(moved) {
        let mut table = format!("{:<56}| current\n", "pinned");
        for row in &lines {
            let mark = if moved(row) { "  <<" } else { "" };
            table += &format!("{:<56}| {}{mark}\n", row.0, row.1);
        }
        panic!("query accounting moved:\n{table}");
    }
}

/// Bytes of one user item, as prbench counts them: one 36-byte `Entry`.
const ITEM_BYTES: f64 = 36.0;

/// The scripted `LprTree` trace's end state, one `name value` line each:
/// its slot layout, tombstones and merges, the pages written to and
/// resident on its device, then the ratios prbench reports — bytes
/// written per inserted byte, bytes held per live byte.
const PINNED_AMP: &str = "\
layout           0:1024,2:4096,4:12223
tombstones       4223
rebuilds         29
pages_written    5542
pages_resident   1158
write_amp        3.0378
space_amp        1.3602
";

#[test]
fn lpr_amplification_is_pinned() {
    let _registry = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let params = TreeParams::with_cap::<2>(16);
    let items = pr_data::synthetic::size_dataset(30_000, 0.01, 13);
    let dev = Arc::new(MemDevice::new(params.page_size));
    let mut lpr = LprTree::<2>::new(dev.clone(), params, 1_024);
    // Merges up to slot 4 (16 384 items), then deletes two of every
    // three: a full rebuild once half the stored items are dead, new
    // tombstones after it. Then inserts on top.
    let (first, rest) = items.split_at(24_000);
    for &item in first {
        lpr.insert(item).unwrap();
    }
    for (_, item) in first.iter().enumerate().filter(|(i, _)| i % 3 != 2) {
        assert!(lpr.delete(item).unwrap());
    }
    for &item in rest {
        lpr.insert(item).unwrap();
    }
    assert_eq!(lpr.len(), 14_000);

    let page = params.page_size as f64;
    let written = dev.io_stats().writes;
    let resident = (dev.resident_bytes() / params.page_size) as u64;
    let layout: Vec<String> = lpr
        .layout()
        .iter()
        .map(|(slot, n)| format!("{slot}:{n}"))
        .collect();
    let current = format!(
        "layout {}\ntombstones {}\nrebuilds {}\npages_written {written}\npages_resident {resident}\n\
         write_amp {:.4}\nspace_amp {:.4}\n",
        layout.join(","),
        lpr.num_tombstones(),
        lpr.rebuilds(),
        written as f64 * page / (items.len() as f64 * ITEM_BYTES),
        resident as f64 * page / (lpr.len() as f64 * ITEM_BYTES),
    );
    let pinned: Vec<Vec<&str>> = PINNED_AMP
        .lines()
        .map(|l| l.split_whitespace().collect())
        .collect();
    let now: Vec<Vec<&str>> = current
        .lines()
        .map(|l| l.split_whitespace().collect())
        .collect();
    if pinned != now {
        let mut table = format!("{:<16} {:>12} {:>12}\n", "", "pinned", "current");
        for (p, c) in pinned.iter().zip(&now) {
            let mark = if p != c { "  <<" } else { "" };
            table += &format!("{:<16} {:>12} {:>12}{mark}\n", p[0], p[1], c[1]);
        }
        panic!("LprTree amplification moved:\n{table}");
    }
}

//! One function per table/figure of the paper; `experiments --help`
//! lists them (README, "Paper fidelity").

use crate::measure::{
    build_external, build_in_memory, fraction_of_leaves_visited, run_queries, QueryAgg,
};
use crate::scale::Scale;
use crate::table::{blocks, f2, pct, Table};
use pr_data::queries::{cluster_strip_queries, skewed_queries, square_queries};
use pr_data::{
    aspect_dataset, cluster_dataset, size_dataset, skewed_dataset, uniform_points,
    worst_case::worst_case_line_query, worst_case_grid, TigerProfile,
};
use pr_em::{BlockDevice, MemDevice};
use pr_geom::{Item, Rect};
use pr_tree::bulk::LoaderKind;
use pr_tree::dynamic::LprTree;
use pr_tree::{RTree, TreeParams};
use std::sync::Arc;

/// All experiment ids, in paper order.
pub fn all_names() -> &'static [&'static str] {
    &[
        "fig9",
        "fig10",
        "fig11",
        "fig12",
        "fig13",
        "fig14",
        "fig15size",
        "fig15aspect",
        "fig15skew",
        "table1",
        "thm3",
        "util",
        "dyn",
        "ablation",
        "cold_open",
    ]
}

/// Runs one experiment by id.
pub fn run(name: &str, scale: Scale) -> Option<Vec<Table>> {
    let tables = match name {
        "fig9" => fig9(scale),
        "fig10" => vec![fig10(scale)],
        "fig11" => vec![fig11(scale)],
        "fig12" => vec![fig12_13(scale, false)],
        "fig13" => vec![fig12_13(scale, true)],
        "fig14" => vec![fig14(scale)],
        "fig15size" => vec![fig15_size(scale)],
        "fig15aspect" => vec![fig15_aspect(scale)],
        "fig15skew" => vec![fig15_skew(scale)],
        "table1" => vec![table1(scale)],
        "thm3" => vec![thm3(scale)],
        "util" => vec![util(scale)],
        "dyn" => dyn_experiment(scale),
        "ablation" => vec![ablation(scale)],
        "cold_open" => vec![cold_open(scale)],
        _ => return None,
    };
    Some(tables)
}

fn params() -> TreeParams {
    TreeParams::paper_2d()
}

fn unit_square() -> Rect<2> {
    Rect::xyxy(0.0, 0.0, 1.0, 1.0)
}

/// Figure 9: bulk-loading cost (block I/Os and wall seconds) on the
/// TIGER-like Eastern and Western datasets.
pub(crate) fn fig9(scale: Scale) -> Vec<Table> {
    let western = TigerProfile::western().generate(scale.n_western(), 5);
    let eastern = TigerProfile::eastern().generate(scale.n_eastern(), 5);

    let mut io = Table::new(
        "fig9-io",
        "bulk-loading I/O on TIGER-like data (blocks read+written)",
        &["tree", "Western", "Eastern"],
    );
    let mut time = Table::new(
        "fig9-time",
        "bulk-loading wall time on TIGER-like data (seconds)",
        &["tree", "Western", "Eastern"],
    );
    for kind in LoaderKind::paper_four() {
        let mut io_row = vec![kind.name().to_string()];
        let mut t_row = vec![kind.name().to_string()];
        for items in [&western, &eastern] {
            let mem = scale.memory_bytes(items.len() as u32);
            let (_, cost) = build_external(kind, items, params(), mem);
            io_row.push(blocks(cost.io.total()));
            t_row.push(f2(cost.seconds));
        }
        io.row(io_row);
        time.row(t_row);
    }
    io.note("paper (Fig 9): H/H4 1.2/1.7 mln, PR 3.1/4.4 mln, TGS 14.7/21.1 mln (West/East)");
    io.note("expected shape: H=H4 < PR (≈2.5x H) < TGS (≈4.5x PR)");
    time.note("paper: H/H4 451/583s, PR 1495/2138s, TGS 4421/6530s — only the ordering is comparable across hardware");
    vec![io, time]
}

/// Figure 10: bulk-loading I/Os over the five nested Eastern subsets.
pub(crate) fn fig10(scale: Scale) -> Table {
    let profile = TigerProfile::eastern();
    let n_full = scale.n_eastern();
    // Paper subset sizes: 2.1, 5.7, 9.2, 12.7, 16.7 mln.
    let fractions = [0.126, 0.341, 0.551, 0.760, 1.0];
    let mut t = Table::new(
        "fig10",
        "bulk-loading I/Os vs input size (nested Eastern subsets)",
        &["rectangles", "H", "PR", "TGS"],
    );
    for (r, frac) in fractions.iter().enumerate() {
        let n = (n_full as f64 * frac) as u32;
        let items = profile.generate(n, r as u32 + 1);
        let mem = scale.memory_bytes(n);
        let mut row = vec![format!("{n}")];
        for kind in [LoaderKind::Hilbert, LoaderKind::Pr, LoaderKind::Tgs] {
            let (_, cost) = build_external(kind, &items, params(), mem);
            row.push(blocks(cost.io.total()));
        }
        t.row(row);
    }
    t.note("paper (Fig 10, mln blocks): H 0.2→1.7, PR 0.6→4.4, TGS 1.8→21.1");
    t.note("expected shape: all three grow ~linearly; TGS slightly superlinear");
    t
}

/// Figure 11: TGS bulk-loading cost over the SIZE and ASPECT sweeps (the
/// only loader whose construction cost depends on the data distribution).
pub(crate) fn fig11(scale: Scale) -> Table {
    let n = scale.n_synthetic();
    let mem = scale.memory_bytes(n);
    let mut t = Table::new(
        "fig11",
        "TGS bulk-loading cost over SIZE(max_side) and ASPECT(a)",
        &["dataset", "seconds", "I/Os"],
    );
    for max_side in [0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2] {
        let items = size_dataset(n, max_side, 0x51ED);
        let (_, cost) = build_external(LoaderKind::Tgs, &items, params(), mem);
        t.row(vec![
            format!("SIZE({max_side})"),
            f2(cost.seconds),
            blocks(cost.io.total()),
        ]);
    }
    for aspect in [10.0, 100.0, 1_000.0, 10_000.0, 100_000.0] {
        let items = aspect_dataset(n, aspect, 0xA59E);
        let (_, cost) = build_external(LoaderKind::Tgs, &items, params(), mem);
        t.row(vec![
            format!("ASPECT({aspect:.0})"),
            f2(cost.seconds),
            blocks(cost.io.total()),
        ]);
    }
    t.note("paper (Fig 11, seconds): SIZE 3726→14024 rising with max_side; ASPECT 4613→14034");
    t.note("for reference, PR on the same data is distribution-independent (§3.3)");
    t
}

/// Shared engine for Figures 12/13: query cost vs query area on TIGER-like
/// data. Performance = leaves read ÷ ⌈T/B⌉ (percent; 100% = optimal).
fn fig12_13(scale: Scale, eastern: bool) -> Table {
    let (id, title, items) = if eastern {
        (
            "fig13",
            "query cost vs query size, Eastern TIGER-like",
            TigerProfile::eastern().generate(scale.n_eastern(), 5),
        )
    } else {
        (
            "fig12",
            "query cost vs query size, Western TIGER-like",
            TigerProfile::western().generate(scale.n_western(), 5),
        )
    };
    let domain = Rect::mbr_of(items.iter().map(|i| &i.rect));
    let mut t = Table::new(
        id,
        title,
        &["area%", "avg T", "TGS", "PR", "H", "H4", "STR"],
    );
    let trees: Vec<(LoaderKind, RTree<2>)> = [
        LoaderKind::Tgs,
        LoaderKind::Pr,
        LoaderKind::Hilbert,
        LoaderKind::Hilbert4,
        LoaderKind::Str,
    ]
    .into_iter()
    .map(|k| (k, build_in_memory(k, &items, params())))
    .collect();
    for area_pct in [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0] {
        let queries = square_queries(
            &domain,
            area_pct / 100.0,
            scale.queries_per_batch(),
            0xF12 + (area_pct * 100.0) as u64,
        );
        let mut row = vec![format!("{area_pct}")];
        let mut avg_t = 0.0;
        let mut costs = Vec::new();
        for (_, tree) in &trees {
            let agg = run_queries(tree, &queries);
            avg_t = agg.avg_results;
            costs.push(agg.avg_relative_cost);
        }
        row.push(format!("{avg_t:.0}"));
        row.extend(costs.into_iter().map(pct));
        t.row(row);
    }
    t.note("paper (Figs 12/13): all four variants within 100–120%; order TGS < PR < H < H4");
    t
}

/// One row of Figures 14 and 15: `label`, the queries' average output
/// size T, then TGS, PR, H and H4's cost in percent of optimal. Each
/// variant is built, queried and dropped before the next is built, so
/// at most one tree is held beside `items`.
fn four_variant_row(label: String, items: &[Item<2>], queries: &[Rect<2>]) -> Vec<String> {
    let aggs: Vec<QueryAgg> = [
        LoaderKind::Tgs,
        LoaderKind::Pr,
        LoaderKind::Hilbert,
        LoaderKind::Hilbert4,
    ]
    .into_iter()
    .map(|kind| run_queries(&build_in_memory(kind, items, params()), queries))
    .collect();
    let mut row = vec![label, format!("{:.0}", aggs[3].avg_results)];
    row.extend(aggs.iter().map(|a| pct(a.avg_relative_cost)));
    row
}

/// Figure 14: query cost vs dataset size (nested Eastern subsets, 1%-area
/// square queries).
pub(crate) fn fig14(scale: Scale) -> Table {
    let profile = TigerProfile::eastern();
    let n_full = scale.n_eastern();
    let fractions = [0.126, 0.341, 0.551, 0.760, 1.0];
    let mut t = Table::new(
        "fig14",
        "query cost vs input size, Eastern subsets (1%-area squares)",
        &["rectangles", "avg T", "TGS", "PR", "H", "H4"],
    );
    for (r, frac) in fractions.iter().enumerate() {
        let n = (n_full as f64 * frac) as u32;
        let items = profile.generate(n, r as u32 + 1);
        let domain = Rect::mbr_of(items.iter().map(|i| &i.rect));
        let queries = square_queries(&domain, 0.01, scale.queries_per_batch(), 0xF14 + r as u64);
        t.row(four_variant_row(format!("{n}"), &items, &queries));
    }
    t.note("paper (Fig 14): flat in N, all within ~110% of optimal");
    t
}

/// Figure 15 (left): query cost over the SIZE(max_side) sweep.
pub(crate) fn fig15_size(scale: Scale) -> Table {
    let n = scale.n_synthetic();
    let mut t = Table::new(
        "fig15size",
        "query cost on SIZE(max_side), 1%-area squares",
        &["max_side", "avg T", "TGS", "PR", "H", "H4"],
    );
    for max_side in [0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2] {
        let items = size_dataset(n, max_side, 0x51ED);
        let queries = square_queries(
            &unit_square(),
            0.01,
            scale.queries_per_batch(),
            0xF15 + (max_side * 1e5) as u64,
        );
        t.row(four_variant_row(format!("{max_side}"), &items, &queries));
    }
    t.note("paper (Fig 15 left): small rects ≈100% for all; large rects: H degrades worst, TGS notably, PR & H4 stay low");
    t
}

/// Figure 15 (middle): query cost over the ASPECT(a) sweep.
pub(crate) fn fig15_aspect(scale: Scale) -> Table {
    let n = scale.n_synthetic();
    let mut t = Table::new(
        "fig15aspect",
        "query cost on ASPECT(a), 1%-area squares",
        &["aspect", "avg T", "TGS", "PR", "H", "H4"],
    );
    for aspect in [10.0, 100.0, 1_000.0, 10_000.0, 100_000.0] {
        let items = aspect_dataset(n, aspect, 0xA59E);
        let queries = square_queries(
            &unit_square(),
            0.01,
            scale.queries_per_batch(),
            0xF15A + aspect as u64,
        );
        t.row(four_variant_row(format!("{aspect:.0}"), &items, &queries));
    }
    t.note(
        "paper (Fig 15 middle): H and TGS degrade with aspect ratio; PR ≈ H4 ≈ optimal throughout",
    );
    t
}

/// Figure 15 (right): query cost over the SKEWED(c) sweep with
/// matching skew-transformed queries.
pub(crate) fn fig15_skew(scale: Scale) -> Table {
    let n = scale.n_synthetic();
    let mut t = Table::new(
        "fig15skew",
        "query cost on SKEWED(c), skew-matched 1%-area squares",
        &["c", "avg T", "TGS", "PR", "H", "H4"],
    );
    for c in [1u32, 3, 5, 7, 9] {
        let items = skewed_dataset(n, c, 0x5E3D);
        let queries = skewed_queries(c, 0.01, scale.queries_per_batch(), 0xF15C + c as u64);
        t.row(four_variant_row(format!("{c}"), &items, &queries));
    }
    t.note("paper (Fig 15 right): PR flat in c (order-based construction); H, H4 and TGS degrade as skew grows");
    t
}

/// Table 1: the CLUSTER dataset with thin horizontal strip queries.
pub(crate) fn table1(scale: Scale) -> Table {
    let (clusters, per_cluster) = scale.cluster();
    let items = cluster_dataset(clusters, per_cluster, 1e-5, 0xC105);
    let queries = cluster_strip_queries(1e-5, scale.queries_per_batch(), 0x51EC);
    let mut t = Table::new(
        "table1",
        "CLUSTER dataset, strip queries (paper Table 1)",
        &["tree", "avg leaf I/Os", "% of R-tree visited", "avg T"],
    );
    for kind in [
        LoaderKind::Hilbert,
        LoaderKind::Hilbert4,
        LoaderKind::Pr,
        LoaderKind::Tgs,
    ] {
        let tree = build_in_memory(kind, &items, params());
        let agg = run_queries(&tree, &queries);
        let frac = fraction_of_leaves_visited(&tree, &agg);
        t.row(vec![
            kind.name().to_string(),
            format!("{:.0}", agg.avg_leaves),
            pct(frac),
            format!("{:.0}", agg.avg_results),
        ]);
    }
    t.note("paper (Table 1): H 32920 I/Os (37%), H4 83389 (94%), PR 1060 (1.2%), TGS 22158 (25%)");
    t.note("expected shape: PR an order of magnitude below all others");
    t
}

/// Theorem 3: the shifted-grid lower-bound dataset with an empty-output
/// line query.
pub(crate) fn thm3(scale: Scale) -> Table {
    let k = scale.worst_case_k();
    let b = params().leaf_cap as u32;
    let items = worst_case_grid(k, b);
    let q = worst_case_line_query(k, b);
    let mut t = Table::new(
        "thm3",
        "Theorem-3 worst-case grid, empty line query (leaves visited)",
        &["tree", "leaves visited", "total leaves", "fraction"],
    );
    for kind in [
        LoaderKind::Hilbert,
        LoaderKind::Hilbert4,
        LoaderKind::Tgs,
        LoaderKind::Pr,
    ] {
        let tree = build_in_memory(kind, &items, params());
        tree.warm_cache().expect("warm");
        let (hits, stats) = tree.window_with_stats(&q).expect("query");
        assert!(hits.is_empty(), "the line query must report nothing");
        let leaves = tree.stats().expect("stats").num_leaves();
        t.row(vec![
            kind.name().to_string(),
            stats.leaves_visited.to_string(),
            leaves.to_string(),
            pct(stats.leaves_visited as f64 / leaves as f64),
        ]);
    }
    let n = items.len() as f64;
    let bound = (n / b as f64).sqrt();
    t.note(format!(
        "Theorem 3: H/H4/TGS must visit Θ(N/B) = all leaves; PR visits O(√(N/B)) ≈ {bound:.0}"
    ));
    t
}

/// Space utilization across loaders and datasets (§3.3: "above 99%").
pub(crate) fn util(scale: Scale) -> Table {
    let n = scale.n_synthetic() / 2;
    let datasets: Vec<(&str, Vec<Item<2>>)> = vec![
        ("UNIFORM", uniform_points(n, 0x07)),
        ("SIZE(0.01)", size_dataset(n, 0.01, 0x51ED)),
        ("ASPECT(100)", aspect_dataset(n, 100.0, 0xA59E)),
        ("SKEWED(5)", skewed_dataset(n, 5, 0x5E3D)),
        ("TIGER-East", TigerProfile::eastern().generate(n, 5)),
    ];
    let mut t = Table::new(
        "util",
        "space utilization (entries stored / slots allocated)",
        &["dataset", "PR", "H", "H4", "TGS", "STR"],
    );
    for (name, items) in &datasets {
        let mut row = vec![name.to_string()];
        for kind in LoaderKind::all() {
            let tree = build_in_memory(kind, items, params());
            let s = tree.stats().expect("stats");
            row.push(pct(s.utilization()));
        }
        t.row(row);
    }
    t.note("paper (§3.3): 'In all experiments and for all R-trees we achieved a space utilization above 99%.'");
    t
}

/// §4 experiments the paper leaves as future work: update heuristics on a
/// bulk-loaded PR-tree, and the logarithmic-method LPR-tree.
pub(crate) fn dyn_experiment(scale: Scale) -> Vec<Table> {
    let n = scale.n_synthetic() / 2;
    let n_updates = scale.n_updates().min(n / 2);
    let items = uniform_points(n, 0xD1);
    let queries = square_queries(&unit_square(), 0.01, scale.queries_per_batch(), 0xD2);

    // (a) Degradation of a bulk-loaded PR-tree under Guttman updates.
    let mut deg = Table::new(
        "dyn-degradation",
        "PR-tree query cost before/after Guttman updates (quadratic split)",
        &["state", "avg rel. cost", "avg leaf I/Os", "utilization"],
    );
    let mut tree = build_in_memory(LoaderKind::Pr, &items, params());
    let agg0 = run_queries(&tree, &queries);
    let s0 = tree.stats().expect("stats");
    deg.row(vec![
        "bulk-loaded".into(),
        pct(agg0.avg_relative_cost),
        f2(agg0.avg_leaves),
        pct(s0.utilization()),
    ]);
    // Random delete+reinsert churn.
    let mut rng_state = 0x9E3779B97F4A7C15u64;
    let mut next = || {
        rng_state ^= rng_state << 13;
        rng_state ^= rng_state >> 7;
        rng_state ^= rng_state << 17;
        rng_state
    };
    let mut live = items.clone();
    let mut next_id = n;
    #[allow(clippy::explicit_counter_loop)] // next_id doubles as item id
    for _ in 0..n_updates {
        let idx = (next() % live.len() as u64) as usize;
        let victim = live.swap_remove(idx);
        tree.delete(&victim).expect("delete");
        let x = (next() % 1_000_000) as f64 / 1_000_000.0;
        let y = (next() % 1_000_000) as f64 / 1_000_000.0;
        let fresh = Item::new(Rect::xyxy(x, y, x, y), next_id);
        next_id += 1;
        tree.insert(fresh).expect("insert");
        live.push(fresh);
    }
    let agg1 = run_queries(&tree, &queries);
    let s1 = tree.stats().expect("stats");
    deg.row(vec![
        format!("after {n_updates} upd."),
        pct(agg1.avg_relative_cost),
        f2(agg1.avg_leaves),
        pct(s1.utilization()),
    ]);
    // Rebuild from scratch for reference.
    let rebuilt = build_in_memory(LoaderKind::Pr, &live, params());
    let agg2 = run_queries(&rebuilt, &queries);
    deg.row(vec![
        "rebuilt".into(),
        pct(agg2.avg_relative_cost),
        f2(agg2.avg_leaves),
        pct(rebuilt.stats().expect("stats").utilization()),
    ]);
    deg.note("§4: updates void the guarantee; degradation vs the rebuilt tree quantifies it");

    // (b) LPR-tree (logarithmic method) vs static PR-tree.
    let mut lpr_table = Table::new(
        "dyn-lpr",
        "LPR-tree (logarithmic method) vs statically bulk-loaded PR-tree",
        &[
            "structure",
            "avg rel. cost",
            "avg leaf I/Os",
            "components",
            "amortized insert I/Os",
        ],
    );
    let p = params();
    let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(p.page_size));
    let mut lpr = LprTree::<2>::new(Arc::clone(&dev), p, (p.leaf_cap * 16).max(1024));
    let before = dev.io_stats();
    for &it in &items {
        lpr.insert(it).expect("lpr insert");
    }
    let insert_io = dev.io_stats().since(before);
    let mut agg = QueryAgg {
        queries: queries.len() as u64,
        ..Default::default()
    };
    let mut rel_sum = 0.0;
    let mut rel_n = 0u64;
    for q in &queries {
        let (hits, stats) = lpr.window(q).expect("lpr query");
        agg.total_leaves += stats.leaves_visited;
        agg.total_results += hits.len() as u64;
        if let Some(rel) = stats.relative_cost(p.leaf_cap) {
            rel_sum += rel;
            rel_n += 1;
        }
    }
    let lpr_rel = if rel_n > 0 {
        rel_sum / rel_n as f64
    } else {
        0.0
    };
    lpr_table.row(vec![
        "LPR-tree".into(),
        pct(lpr_rel),
        f2(agg.total_leaves as f64 / agg.queries as f64),
        lpr.num_components().to_string(),
        f2(insert_io.total() as f64 / n as f64),
    ]);
    let static_tree = build_in_memory(LoaderKind::Pr, &items, p);
    let sagg = run_queries(&static_tree, &queries);
    lpr_table.row(vec![
        "static PR".into(),
        pct(sagg.avg_relative_cost),
        f2(sagg.avg_leaves),
        "1".into(),
        "-".into(),
    ]);
    lpr_table
        .note("§1.2: the logarithmic method keeps the query bound at an O(log) component fan-out");

    vec![deg, lpr_table]
}

/// Structural ablations of the PR-tree: priority-leaf size and kd-split
/// snapping, measured in query I/O and utilization.
pub(crate) fn ablation(scale: Scale) -> Table {
    use pr_tree::bulk::pr::PrTreeLoader;
    use pr_tree::bulk::BulkLoader;
    let n = scale.n_synthetic() / 2;
    let items = uniform_points(n, 0xAB1);
    let queries = square_queries(&unit_square(), 0.01, scale.queries_per_batch(), 0xAB2);
    let p = params();
    let mut t = Table::new(
        "ablation",
        "PR-tree structural ablations (uniform points, 1%-area squares)",
        &["variant", "avg rel. cost", "utilization", "leaves"],
    );
    let variants: Vec<(String, PrTreeLoader)> = vec![
        (
            "prio=B, snapped (paper)".into(),
            PrTreeLoader {
                priority_size: None,
                snap_splits: true,
            },
        ),
        (
            "prio=B, exact median".into(),
            PrTreeLoader {
                priority_size: None,
                snap_splits: false,
            },
        ),
        (
            format!("prio=B/4 ({})", p.leaf_cap / 4),
            PrTreeLoader {
                priority_size: Some(p.leaf_cap / 4),
                snap_splits: true,
            },
        ),
        (
            "prio=1 (Agarwal et al.)".into(),
            PrTreeLoader {
                priority_size: Some(1),
                snap_splits: true,
            },
        ),
    ];
    for (label, loader) in variants {
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(p.page_size));
        let tree = loader.load(dev, p, items.clone()).expect("build");
        let agg = run_queries(&tree, &queries);
        let s = tree.stats().expect("stats");
        t.row(vec![
            label,
            pct(agg.avg_relative_cost),
            pct(s.utilization()),
            s.num_leaves().to_string(),
        ]);
    }
    t.note("priority leaves of size B are what make the PR-tree practical: shrinking them toward Agarwal et al.'s size-1 leaves destroys both utilization and query cost");
    t
}

/// cold_open: blocks touched between "process starts" and "first window
/// query answered" for a persisted index (`pr-store` open) versus a full
/// rebuild from the raw rectangles — the persistence subsystem's reason
/// to exist, in one table.
pub(crate) fn cold_open(scale: Scale) -> Table {
    use pr_store::Store;
    let n = scale.n_cold_open();
    let items = uniform_points(n, 0xC01D);
    let p = params();
    let q = square_queries(&unit_square(), 0.001, 1, 0xC01E)[0];

    // Persist once (cost charged to neither path; an index is written
    // once and opened on every restart).
    let dir = std::env::temp_dir();
    let path = dir.join(format!("pr-bench-cold-open-{}.prt", std::process::id()));
    let built = build_in_memory(LoaderKind::Pr, &items, p);
    let mut store = Store::create::<2>(&path, p).expect("create store");
    store.save(&built).expect("save");
    drop((store, built));

    let mut t = Table::new(
        "cold_open",
        "cold start to first query: reopen persisted index vs full rebuild",
        &[
            "path",
            "blocks read",
            "blocks written",
            "first-query leaves",
            "seconds",
        ],
    );

    // Path 1: rebuild from raw rectangles, warm the cache, run the query.
    let t0 = std::time::Instant::now();
    let rebuilt = build_in_memory(LoaderKind::Pr, &items, p);
    rebuilt.warm_cache().expect("warm");
    let (rebuild_hits, rebuild_stats) = rebuilt.window_with_stats(&q).expect("query");
    let rebuild_secs = t0.elapsed().as_secs_f64();
    let io = rebuilt.device().io_stats();
    t.row(vec![
        "rebuild".into(),
        blocks(io.reads),
        blocks(io.writes),
        rebuild_stats.leaves_visited.to_string(),
        f2(rebuild_secs),
    ]);

    // Path 2: reopen the committed snapshot, warm the cache, same query.
    let t0 = std::time::Instant::now();
    let reopened = Store::open_tree::<2>(&path).expect("open store");
    reopened.warm_cache().expect("warm");
    let (open_hits, open_stats) = reopened.window_with_stats(&q).expect("query");
    let open_secs = t0.elapsed().as_secs_f64();
    let io = reopened.device().io_stats();
    t.row(vec![
        "cold open".into(),
        blocks(io.reads),
        blocks(io.writes),
        open_stats.leaves_visited.to_string(),
        f2(open_secs),
    ]);
    assert_eq!(
        rebuild_hits, open_hits,
        "persisted and rebuilt trees must answer identically"
    );

    t.note(format!(
        "n = {n} rectangles; open reads internal nodes + touched leaves only (plus 3 fixed-size header records outside block accounting), rebuild rewrites every page"
    ));
    t.note(format!(
        "wall-clock speedup of open over rebuild: {:.0}x",
        rebuild_secs / open_secs.max(1e-9)
    ));
    std::fs::remove_file(&path).ok();
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature scale so the full experiment matrix can run in tests.
    fn tiny() -> Scale {
        Scale::Small
    }

    #[test]
    fn every_listed_experiment_runs() {
        // Smoke-run the cheapest experiments end-to-end at small scale.
        // CI runs the binary on the five that take seconds; the figure
        // sweeps take minutes and run when EXPERIMENTS.md is regenerated.
        for name in ["table1", "thm3"] {
            let tables = run(name, tiny()).expect("known experiment");
            assert!(!tables.is_empty());
            for t in &tables {
                assert!(!t.rows.is_empty(), "{name} produced no rows");
            }
        }
        assert!(run("nonsense", tiny()).is_none());
    }

    #[test]
    fn all_names_resolve() {
        for name in all_names() {
            // Names must be dispatchable (checked without executing).
            let known = matches!(
                *name,
                "fig9"
                    | "fig10"
                    | "fig11"
                    | "fig12"
                    | "fig13"
                    | "fig14"
                    | "fig15size"
                    | "fig15aspect"
                    | "fig15skew"
                    | "table1"
                    | "thm3"
                    | "util"
                    | "dyn"
                    | "ablation"
                    | "cold_open"
            );
            assert!(known, "{name} not dispatchable");
        }
    }

    #[test]
    fn thm3_shows_the_separation() {
        let t = thm3(Scale::Small);
        // Row order: H, H4, TGS, PR. PR must visit far fewer leaves.
        let visited: Vec<f64> = t
            .rows
            .iter()
            .map(|r| r[1].parse::<f64>().unwrap())
            .collect();
        let (h, h4, tgs, pr) = (visited[0], visited[1], visited[2], visited[3]);
        assert!(pr * 5.0 < h, "PR {pr} should be ≪ H {h}");
        assert!(pr * 5.0 < h4, "PR {pr} should be ≪ H4 {h4}");
        assert!(pr * 5.0 < tgs, "PR {pr} should be ≪ TGS {tgs}");
    }
}

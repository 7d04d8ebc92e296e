//! Query passes and their oracle: timed window / k-NN batches over
//! anything queryable, and brute-force verification of a seeded sample.

use crate::ctx::{Ctx, Run};
use crate::spans::Layer;
use crate::stats;
use prtree::geom::{Item, Point, Rect};
use prtree::live::LiveSnapshot;
use prtree::tree::query::brute_force_window;
use prtree::tree::{QueryScratch, QueryStats, RTree, TreeParams};

/// Neighbours per k-NN query.
pub const K: usize = 10;

/// A queryable index: a static tree or a live snapshot.
pub trait Queryable {
    /// The layer whose public API the call enters.
    const LAYER: Layer;
    fn window_q(
        &self,
        q: &Rect<2>,
        scratch: &mut QueryScratch<2>,
        out: &mut Vec<Item<2>>,
    ) -> Result<QueryStats, String>;
    fn knn_q(
        &self,
        p: &Point<2>,
        scratch: &mut QueryScratch<2>,
        out: &mut Vec<(Item<2>, f64)>,
    ) -> Result<QueryStats, String>;
}

impl Queryable for RTree<2> {
    const LAYER: Layer = Layer::Tree;
    fn window_q(
        &self,
        q: &Rect<2>,
        scratch: &mut QueryScratch<2>,
        out: &mut Vec<Item<2>>,
    ) -> Result<QueryStats, String> {
        self.window_into(q, scratch, out).map_err(|e| e.to_string())
    }
    fn knn_q(
        &self,
        p: &Point<2>,
        scratch: &mut QueryScratch<2>,
        out: &mut Vec<(Item<2>, f64)>,
    ) -> Result<QueryStats, String> {
        self.nearest_neighbors_into(p, K, scratch, out)
            .map_err(|e| e.to_string())
    }
}

impl Queryable for LiveSnapshot<2> {
    const LAYER: Layer = Layer::Live;
    fn window_q(
        &self,
        q: &Rect<2>,
        scratch: &mut QueryScratch<2>,
        out: &mut Vec<Item<2>>,
    ) -> Result<QueryStats, String> {
        self.window_into(q, scratch, out).map_err(|e| e.to_string())
    }
    fn knn_q(
        &self,
        p: &Point<2>,
        scratch: &mut QueryScratch<2>,
        out: &mut Vec<(Item<2>, f64)>,
    ) -> Result<QueryStats, String> {
        self.nearest_neighbors_into(p, K, scratch, out)
            .map_err(|e| e.to_string())
    }
}

/// Caller-owned query buffers, reused across every call of a run.
#[derive(Default)]
pub struct Bufs {
    pub scratch: QueryScratch<2>,
    pub items: Vec<Item<2>>,
    pub neighbors: Vec<(Item<2>, f64)>,
}

/// Leaf capacity of the trees every workload builds (the paper's B).
pub fn leaf_cap() -> usize {
    TreeParams::paper_2d().leaf_cap
}

/// Runs `queries` once, timing each call → results in the caller's
/// `Vec`. Records the pass's p50/p99 (µs) and adds the traversal
/// counters to the run totals.
pub fn window_pass<Q: Queryable>(
    ctx: &mut Ctx,
    idx: &Q,
    queries: &[Rect<2>],
    bufs: &mut Bufs,
) -> Run<()> {
    let mut lat = Vec::with_capacity(queries.len());
    let leaf_cap = leaf_cap();
    let (mut leaves, mut internal, mut results) = (0u64, 0u64, 0u64);
    let (mut rel_sum, mut rel_n) = (0.0, 0u64);
    for q in queries {
        let (st, ns) = ctx.op(Q::LAYER, "window", || {
            idx.window_q(q, &mut bufs.scratch, &mut bufs.items)
        })?;
        lat.push(ns);
        leaves += st.leaves_visited;
        internal += st.internal_visited;
        results += st.results;
        if let Some(rel) = st.relative_cost(leaf_cap) {
            rel_sum += rel;
            rel_n += 1;
        }
    }
    let total_ns: f64 = lat.iter().sum();
    stats::sort(&mut lat);
    ctx.push("window_p50_us", stats::percentile(&lat, 50.0) / 1e3);
    ctx.push("window_p99_us", stats::percentile(&lat, 99.0) / 1e3);
    ctx.add("window_queries", queries.len() as f64);
    ctx.add("window_ns", total_ns);
    ctx.add("window_leaves", leaves as f64);
    ctx.add("window_internal", internal as f64);
    ctx.add("window_results", results as f64);
    ctx.add("window_rel_sum", rel_sum);
    ctx.add("window_rel_n", rel_n as f64);
    Ok(())
}

/// Runs the k-NN `points` once (k = [`K`]), timing each call → sorted
/// neighbours.
pub fn knn_pass<Q: Queryable>(
    ctx: &mut Ctx,
    idx: &Q,
    points: &[Point<2>],
    bufs: &mut Bufs,
) -> Run<()> {
    let mut lat = Vec::with_capacity(points.len());
    let mut leaves = 0u64;
    for p in points {
        let (st, ns) = ctx.op(Q::LAYER, "knn", || {
            idx.knn_q(p, &mut bufs.scratch, &mut bufs.neighbors)
        })?;
        lat.push(ns);
        leaves += st.leaves_visited;
    }
    stats::sort(&mut lat);
    ctx.push("knn_p50_us", stats::percentile(&lat, 50.0) / 1e3);
    ctx.push("knn_p99_us", stats::percentile(&lat, 99.0) / 1e3);
    ctx.add("knn_queries", points.len() as f64);
    ctx.add("knn_leaves", leaves as f64);
    Ok(())
}

/// The paper's worst case: `lines` are empty horizontal line queries
/// through an index holding the `n`-point Theorem-3 grid. Sets
/// `worst_case_leaf_io` (mean leaves visited; any answer at all is a
/// failed op) and the per-layer readings of the same pass.
pub fn line_pass<Q: Queryable>(
    ctx: &mut Ctx,
    idx: &Q,
    lines: &[Rect<2>],
    n: usize,
    bufs: &mut Bufs,
) -> Run<()> {
    let (mut leaves, mut results, mut ns) = (0u64, 0u64, 0.0);
    for q in lines {
        let (st, t) = ctx.op(Q::LAYER, "line", || {
            idx.window_q(q, &mut bufs.scratch, &mut bufs.items)
        })?;
        leaves += st.leaves_visited;
        results += st.results;
        ns += t;
    }
    ctx.check(results == 0, || {
        format!("empty grid lines returned {results} items")
    });
    let per_line = leaves as f64 / lines.len() as f64;
    ctx.set("worst_case_leaf_io", per_line);
    ctx.set(
        "tree.worst_case_io_over_sqrt",
        per_line / (n as f64 / leaf_cap() as f64).sqrt(),
    );
    ctx.set("tree.worst_case_line_us", ns / 1e3 / lines.len() as f64);
    Ok(())
}

/// One discarded pass of both query kinds (nothing recorded).
pub fn warm<Q: Queryable>(
    ctx: &mut Ctx,
    idx: &Q,
    windows: &[Rect<2>],
    points: &[Point<2>],
    bufs: &mut Bufs,
) -> Run<()> {
    for q in windows {
        ctx.op(Q::LAYER, "window", || {
            idx.window_q(q, &mut bufs.scratch, &mut bufs.items)
        })?;
    }
    for p in points {
        ctx.op(Q::LAYER, "knn", || {
            idx.knn_q(p, &mut bufs.scratch, &mut bufs.neighbors)
        })?;
    }
    Ok(())
}

/// Checks `windows` and k-NN `points` against a brute-force scan of
/// `truth` (the items the index must hold). Every answer is one counted
/// check; a disagreement is a failed op.
pub fn verify<Q: Queryable>(
    ctx: &mut Ctx,
    idx: &Q,
    truth: &[Item<2>],
    windows: &[Rect<2>],
    points: &[Point<2>],
    bufs: &mut Bufs,
) -> Run<()> {
    ctx.scope("verify", |ctx| {
        for q in windows {
            ctx.op(Q::LAYER, "window", || {
                idx.window_q(q, &mut bufs.scratch, &mut bufs.items)
            })?;
            check_same_ids(ctx, "window", &bufs.items, &brute_force_window(truth, q));
        }
        let mut dist: Vec<f64> = Vec::with_capacity(truth.len());
        for p in points {
            ctx.op(Q::LAYER, "knn", || {
                idx.knn_q(p, &mut bufs.scratch, &mut bufs.neighbors)
            })?;
            dist.clear();
            dist.extend(truth.iter().map(|i| i.rect.min_dist2(p).sqrt()));
            if dist.len() > K {
                dist.select_nth_unstable_by(K - 1, f64::total_cmp);
                dist.truncate(K);
            }
            stats::sort(&mut dist);
            let got: Vec<f64> = bufs.neighbors.iter().map(|n| n.1).collect();
            let same = got.len() == dist.len()
                && got
                    .iter()
                    .zip(&dist)
                    .all(|(a, b)| (a - b).abs() <= 1e-12 * b.abs().max(1.0));
            ctx.check(same, || format!("knn {p:?}: got {got:?}, want {dist:?}"));
        }
        Ok(())
    })
    .map(|_| ())
}

/// Checks that `got` holds exactly the ids of `want` (as multisets).
pub fn check_same_ids(ctx: &mut Ctx, what: &str, got: &[Item<2>], want: &[Item<2>]) {
    let mut g: Vec<u32> = got.iter().map(|i| i.id).collect();
    let mut w: Vec<u32> = want.iter().map(|i| i.id).collect();
    g.sort_unstable();
    w.sort_unstable();
    ctx.check(g == w, || {
        format!("{what}: got {} ids, want {}", g.len(), w.len())
    });
}

//! Measurement helpers: build trees, run query batches, collect I/O.

use pr_em::{BlockDevice, IoStats, MemDevice, Stream};
use pr_geom::{Item, Rect};
use pr_tree::bulk::external::{load_hilbert_external, ExternalConfig};
use pr_tree::bulk::pr_external::PrExternalLoader;
use pr_tree::bulk::tgs_external::TgsExternalLoader;
use pr_tree::bulk::LoaderKind;
use pr_tree::{Entry, RTree, TreeParams};
use std::sync::Arc;
use std::time::Instant;

/// Cost of one bulk-loading run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BuildCost {
    /// Block transfers through the substrate.
    pub io: IoStats,
    /// Wall-clock seconds on this host.
    pub seconds: f64,
}

/// Builds a tree with the *in-memory* loader (used by query experiments,
/// where construction cost is irrelevant).
pub(crate) fn build_in_memory(kind: LoaderKind, items: &[Item<2>], params: TreeParams) -> RTree<2> {
    let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
    kind.loader::<2>()
        .load(dev, params, items.to_vec())
        .expect("bulk load")
}

/// Builds a tree with the *external* loader under `memory_bytes` of
/// budget, measuring substrate I/O (excluding writing the input stream)
/// and wall time. `STR` has no external form and is mapped to its
/// in-memory loader with I/O = page writes only.
pub(crate) fn build_external(
    kind: LoaderKind,
    items: &[Item<2>],
    params: TreeParams,
    memory_bytes: usize,
) -> (RTree<2>, BuildCost) {
    let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
    let input = Stream::from_iter(
        dev.as_ref(),
        items.iter().map(|&i| Entry::<2>::from_item(i)),
    )
    .expect("input stream");
    let config = ExternalConfig::with_memory(memory_bytes);
    let before = dev.io_stats();
    let start = Instant::now();
    let tree = match kind {
        LoaderKind::Pr => PrExternalLoader::new(config)
            .load::<2>(Arc::clone(&dev), params, &input)
            .expect("pr external"),
        LoaderKind::Hilbert => {
            load_hilbert_external::<2>(Arc::clone(&dev), params, &input, config, false)
                .expect("hilbert external")
        }
        LoaderKind::Hilbert4 => {
            load_hilbert_external::<2>(Arc::clone(&dev), params, &input, config, true)
                .expect("h4 external")
        }
        LoaderKind::Tgs => TgsExternalLoader::new(config)
            .load::<2>(Arc::clone(&dev), params, &input)
            .expect("tgs external"),
        LoaderKind::Str => kind
            .loader::<2>()
            .load(Arc::clone(&dev), params, items.to_vec())
            .expect("str"),
    };
    let seconds = start.elapsed().as_secs_f64();
    let io = dev.io_stats().since(before);
    (tree, BuildCost { io, seconds })
}

/// Aggregate cost of a query batch.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct QueryAgg {
    /// Queries executed.
    pub queries: u64,
    /// Total leaf blocks read (the paper's I/O metric).
    pub total_leaves: u64,
    /// Total reported rectangles.
    pub total_results: u64,
    /// Mean of per-query `leaves / ⌈T/B⌉` over queries with `T > 0`.
    pub avg_relative_cost: f64,
    /// Mean leaves per query.
    pub avg_leaves: f64,
    /// Mean results per query.
    pub avg_results: f64,
}

/// Runs a query batch the way the paper does: all internal nodes cached
/// (`warm_cache`), cost = leaves fetched.
pub(crate) fn run_queries(tree: &RTree<2>, queries: &[Rect<2>]) -> QueryAgg {
    tree.warm_cache().expect("warm cache");
    let leaf_cap = tree.params().leaf_cap;
    let mut agg = QueryAgg {
        queries: queries.len() as u64,
        ..Default::default()
    };
    let mut rel_sum = 0.0;
    let mut rel_n = 0u64;
    for q in queries {
        let (_, stats) = tree.window_count(q).expect("query");
        agg.total_leaves += stats.leaves_visited;
        agg.total_results += stats.results;
        if let Some(rel) = stats.relative_cost(leaf_cap) {
            rel_sum += rel;
            rel_n += 1;
        }
    }
    if rel_n > 0 {
        agg.avg_relative_cost = rel_sum / rel_n as f64;
    }
    if agg.queries > 0 {
        agg.avg_leaves = agg.total_leaves as f64 / agg.queries as f64;
        agg.avg_results = agg.total_results as f64 / agg.queries as f64;
    }
    agg
}

/// Fraction of the tree's leaves a batch visits on average (Table 1's
/// "% of the R-tree visited").
pub(crate) fn fraction_of_leaves_visited(tree: &RTree<2>, agg: &QueryAgg) -> f64 {
    let leaves = tree.stats().expect("stats").num_leaves();
    if leaves == 0 || agg.queries == 0 {
        return 0.0;
    }
    (agg.total_leaves as f64 / agg.queries as f64) / leaves as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_data::uniform_points;

    #[test]
    fn in_memory_and_external_builds_agree_on_query_results() {
        let items = uniform_points(5_000, 1);
        let params = TreeParams::with_cap::<2>(16);
        let mem = build_in_memory(LoaderKind::Pr, &items, params);
        let (ext, cost) = build_external(LoaderKind::Pr, &items, params, 64 << 10);
        assert!(cost.io.total() > 0);
        assert!(cost.seconds >= 0.0);
        let q = Rect::xyxy(0.2, 0.2, 0.4, 0.4);
        let a = mem.window(&q).unwrap().len();
        let b = ext.window(&q).unwrap().len();
        assert_eq!(a, b);
    }

    #[test]
    fn query_agg_metrics_are_sane() {
        let items = uniform_points(20_000, 2);
        let params = TreeParams::with_cap::<2>(32);
        let tree = build_in_memory(LoaderKind::Hilbert, &items, params);
        let queries =
            pr_data::queries::square_queries(&Rect::xyxy(0.0, 0.0, 1.0, 1.0), 0.01, 20, 3);
        let agg = run_queries(&tree, &queries);
        assert_eq!(agg.queries, 20);
        assert!(agg.avg_results > 50.0, "1% of 20k ≈ 200");
        assert!(agg.avg_relative_cost >= 1.0, "cannot beat ⌈T/B⌉");
        assert!(agg.avg_relative_cost < 3.0, "packed tree near optimal");
        let frac = fraction_of_leaves_visited(&tree, &agg);
        assert!(frac > 0.0 && frac < 0.2);
    }

    #[test]
    fn all_loader_kinds_build_external() {
        let items = uniform_points(2_000, 5);
        let params = TreeParams::with_cap::<2>(16);
        for kind in LoaderKind::all() {
            let (tree, cost) = build_external(kind, &items, params, 32 << 10);
            assert_eq!(tree.len(), 2_000, "{}", kind.name());
            tree.validate().unwrap().assert_ok();
            assert!(cost.io.writes > 0);
        }
    }
}
